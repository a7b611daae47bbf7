package stencilc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// Program3D is a compiled 3D Z-column star-stencil program with
// memory-resident halos, built for composition across wafers
// (internal/multiwafer): the machine's fabric covers the X×Y tile extent
// [X0, X0+W)×[Y0, Y0+H) of a larger global mesh, each tile owns the
// Z-column of one (x, y) and stores — besides its coefficient and
// iterate/result columns — one halo column per lateral stencil point,
// holding the iterate of the neighbour at that offset.
//
// One application runs in two phases per tile. The exchange phase moves
// iterate columns over the four single-hop directional colors in
// max(Wx, Wy) relay rounds: round 1 streams the tile's own column to
// each on-fabric neighbour; round r forwards the distance-(r−1) halo
// received from the opposite side, so after r rounds every tile holds
// verbatim copies (wse.StreamStore — bit-exact) of all neighbours out
// to distance r without any multi-hop routing. Rounds reuse the same
// colors and thread slots; per-color FIFO ordering sequences them, and
// a uniform schedule (every on-fabric link carries the same word count
// each round, even where the payload column lies beyond the global mesh
// and its scatter term is skipped) keeps the fabric deadlock-free.
// Halo columns whose neighbour lives on another wafer are filled by the
// host before Run, modelling the CS-1's edge I/O. The compute phase
// then runs a fixed sequence of tensor instructions in exactly
// stencil.OpStarHalf.Apply's rounding order: z pairs by distance,
// lateral terms direction-major (xp, xm, yp, ym) with distance inner,
// then the unit diagonal — and, for ReduceSumSq specs, a fused per-tile
// Σy² dot.
//
// Because every arithmetic step is a per-tile instruction in a fixed
// program order and halos move bit-verbatim, the result is bitwise
// equal to OpStarHalf.Apply on the global mesh — independent of how the
// mesh is cut into wafers and of the simulation engine. At W = {1,1,1}
// the emitted program is exactly the hand-written 7-point kernel this
// compiler replaced (internal/kernels' stencilc goldens pin the
// bit-identity); the star and multiwafer solvers hold it directly.
type Program3D struct {
	program
	Mesh   stencil.Mesh // the global mesh
	X0, Y0 int          // global tile coordinate of fabric (0, 0)

	rounds int   // lateral relay rounds per application, max(Wx, Wy)
	ff     *ff3d // fast-forward plan, built lazily on first eligible Run
	tiles  []*tile3D
}

type tile3D struct {
	tile   *wse.Tile
	ti     int // fabric row-major index
	x, y   int // fabric-local coordinate
	gx, gy int // global mesh column

	offC [NumHaloDirs][]int // lateral coefficients [dir][dist-1], Z each
	offZ [2][]int           // z coefficients: offZ[0] = zp, offZ[1] = zm, [dist-1]
	offV int                // iterate column, Z
	offU int                // result column, Z
	offH [NumHaloDirs][]int // halo columns [dir][dist-1], Z each
	from [NumHaloDirs]*wse.StreamBuf

	compute *wse.Task
	dotTask *wse.Task // fused Σy², nil unless ReduceSumSq
	round   int       // current exchange round, 1-based
	exLeft  int       // outstanding threads of the current round

	// The instructions of one application, built by the first armTile
	// (a program that is only ever fast-forwarded never pays for them)
	// and rewound by every later one: the compute body, the fused dot,
	// and each relay round's send/store pair per direction.
	ops    []wse.MemOp
	dot    wse.DotMixed
	xfer   []haloXfer // [(round-1)*NumHaloDirs + dir]
	exDone func(*wse.Core)
}

// haloXfer is one direction's thread pair of one relay round.
type haloXfer struct {
	send  wse.SendMem
	store wse.StreamStore
}

// latName maps a halo direction to its coefficient-column name stem.
var latName = [NumHaloDirs]string{HaloXP: "xp", HaloXM: "xm", HaloYP: "yp", HaloYM: "ym"}

// distName suffixes a column name with its distance; distance 1 keeps
// the bare stem (the pre-compiler kernel's names, which the goldens see
// through TileMemoryWords and arena layout).
func distName(stem string, k int) string {
	if k == 1 {
		return stem
	}
	return fmt.Sprintf("%s%d", stem, k)
}

// Compile3D lowers spec onto mach as a halo-resident program for the
// sub-extent of the global operator op starting at tile (x0, y0); the
// fabric size selects the extent. Z must be even (two fp16 elements per
// fabric word) and the fabric must fit inside the mesh. base is the
// first of the four directional exchange colors.
func Compile3D(mach *wse.Machine, spec Spec, op *stencil.OpStarHalf, x0, y0 int, base fabric.Color) (*Program3D, error) {
	if err := spec.checkLowerable(); err != nil {
		return nil, err
	}
	if spec.Dim != 3 {
		return nil, fmt.Errorf("stencilc: Compile3D needs a 3D spec, got dim %d", spec.Dim)
	}
	if spec.Points != Star {
		return nil, unsupported(spec, "the Z-column mapping exchanges axis-aligned columns only; a 3D box needs diagonal channels")
	}
	m := op.M
	w, h := mach.Cfg.FabricW, mach.Cfg.FabricH
	if m.NZ%2 != 0 {
		return nil, fmt.Errorf("stencilc: Z=%d must be even (two fp16 per fabric word)", m.NZ)
	}
	if x0 < 0 || y0 < 0 || x0+w > m.NX || y0+h > m.NY {
		return nil, fmt.Errorf("stencilc: fabric %dx%d at (%d,%d) exceeds mesh %v", w, h, x0, y0, m)
	}
	base3D, err := newProgram(mach, spec, base)
	if err != nil {
		return nil, err
	}
	p := &Program3D{program: base3D, Mesh: m, X0: x0, Y0: y0, rounds: max(spec.Widths[0], spec.Widths[1])}
	p.arm = p.armTile
	z := m.NZ

	p.tiles = make([]*tile3D, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tl := mach.TileAt(fabric.Coord{X: x, Y: y})
			st := &tile3D{tile: tl, ti: y*w + x, x: x, y: y, gx: x0 + x, gy: y0 + y}
			lay := tileAlloc{a: tl.Arena}
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				wd := spec.Widths[axisOf(d)]
				st.offC[d] = make([]int, wd)
				for k := 1; k <= wd; k++ {
					st.offC[d][k-1] = lay.alloc(distName(latName[d], k), z)
				}
			}
			for i, stem := range [2]string{zpIdx: "zp", zmIdx: "zm"} {
				st.offZ[i] = make([]int, spec.Widths[2])
				for k := range st.offZ[i] {
					st.offZ[i][k] = lay.alloc(distName(stem, k+1), z)
				}
			}
			st.offV = lay.alloc("v", z)
			st.offU = lay.alloc("u", z)
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				wd := spec.Widths[axisOf(d)]
				st.offH[d] = make([]int, wd)
				for k := 1; k <= wd; k++ {
					name := fmt.Sprintf("h%d", d)
					if k > 1 {
						name = fmt.Sprintf("h%d_%d", d, k)
					}
					st.offH[d][k-1] = lay.alloc(name, z)
				}
			}
			if lay.err != nil {
				return nil, fmt.Errorf("stencilc: tile (%d,%d): %v", x, y, lay.err)
			}

			// Stream subscriptions for on-fabric neighbours; one buffer
			// per direction, shared by all relay rounds (per-color FIFO
			// order keeps rounds from interleaving).
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				nx, ny := x+haloDelta[d][0], y+haloDelta[d][1]
				if nx >= 0 && nx < w && ny >= 0 && ny < h {
					st.from[d] = wse.NewStreamBuf(4)
					tl.Core.Subscribe(base+fabric.Color(haloTravel[d]), st.from[d])
				}
			}

			st.compute = tl.Core.AddTask(&wse.Task{Name: "spmv3dh"})
			if spec.Reduce == ReduceSumSq {
				st.dotTask = tl.Core.AddTask(&wse.Task{Name: "sumsq"})
				st.dotTask.OnComplete = func(c *wse.Core) { p.done[st.ti] = true }
				st.compute.OnComplete = func(c *wse.Core) { c.Activate(st.dotTask) }
			} else {
				st.compute.OnComplete = func(c *wse.Core) { p.done[st.ti] = true }
			}
			p.tiles[st.ti] = st
		}
	}
	if err := p.LoadCoeff(op); err != nil {
		return nil, err
	}
	return p, nil
}

// zp/zm indices within tile3D.offZ.
const (
	zpIdx = 0
	zmIdx = 1
)

// LoadCoeff (re)loads the coefficient columns from the global operator.
// Routing, memory layout and task structure are reused; an operator on
// another mesh or of other widths is refused with the program untouched.
func (p *Program3D) LoadCoeff(op *stencil.OpStarHalf) error {
	if op.M != p.Mesh {
		return fmt.Errorf("stencilc: operator mesh %v does not match program mesh %v", op.M, p.Mesh)
	}
	if op.W != p.Spec.Widths {
		return fmt.Errorf("stencilc: operator widths %v do not match spec widths %v", op.W, p.Spec.Widths)
	}
	z := p.Mesh.NZ
	lat := [NumHaloDirs][][]fp16.Float16{HaloXP: op.XP, HaloXM: op.XM, HaloYP: op.YP, HaloYM: op.YM}
	for _, st := range p.tiles {
		a := st.tile.Arena
		for zz := 0; zz < z; zz++ {
			i := p.Mesh.Index(st.gx, st.gy, zz)
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				for k := range st.offC[d] {
					a.Set(st.offC[d][k]+zz, lat[d][k][i])
				}
			}
			for k := range st.offZ[zpIdx] {
				a.Set(st.offZ[zpIdx][k]+zz, op.ZP[k][i])
			}
			for k := range st.offZ[zmIdx] {
				a.Set(st.offZ[zmIdx][k]+zz, op.ZM[k][i])
			}
		}
	}
	return nil
}

// GlobalCoord returns the global mesh column of tile index i.
func (p *Program3D) GlobalCoord(i int) (gx, gy int) { return p.tiles[i].gx, p.tiles[i].gy }

// Iterate returns tile i's live iterate column (Z elements of arena
// storage). The host writes the solver's source vector here before Run
// and reads boundary columns from it when shipping inter-wafer halos;
// both are bit-verbatim copies.
func (p *Program3D) Iterate(i int) []fp16.Float16 {
	st := p.tiles[i]
	return st.tile.Arena.Slice(st.offV, p.Mesh.NZ)
}

// Result returns tile i's live result column.
func (p *Program3D) Result(i int) []fp16.Float16 {
	st := p.tiles[i]
	return st.tile.Arena.Slice(st.offU, p.Mesh.NZ)
}

// Halo returns tile i's live halo column for direction d at distance
// dist ∈ [1, width]. The host fills it for off-wafer neighbours before
// Run; on-fabric directions are overwritten by the exchange phase.
func (p *Program3D) Halo(i int, d HaloDir, dist int) []fp16.Float16 {
	st := p.tiles[i]
	return st.tile.Arena.Slice(st.offH[d][dist-1], p.Mesh.NZ)
}

// CopyResult copies tile i's result column to dst.
func (p *Program3D) CopyResult(i int, dst []fp16.Float16) { copy(dst, p.Result(i)) }

// inMesh reports whether tile st has a neighbour at distance dist in
// direction d on the global mesh at all.
func (p *Program3D) inMesh(st *tile3D, d HaloDir, dist int) bool {
	gx, gy := st.gx+dist*haloDelta[d][0], st.gy+dist*haloDelta[d][1]
	return gx >= 0 && gx < p.Mesh.NX && gy >= 0 && gy < p.Mesh.NY
}

// term is one instruction of a tile's compute task: dst = kind(a, b)
// over n elements, operands as arena offsets.
type term struct {
	kind      wse.MemOpKind
	dst, a, b int
	n         int
}

// memOp is the term as the instruction the simulated datapath steps.
func (t term) memOp(a *tensor.Arena) wse.MemOp {
	return wse.MemOp{Kind: t.kind, Arena: a,
		Dst: tensor.Vec1D(t.dst, t.n), A: tensor.Vec1D(t.a, t.n), B: tensor.Vec1D(t.b, t.n)}
}

// terms walks tile st's compute task in stencil.OpStarHalf.Apply's exact
// order — the one statement of that sequence: the cycle-simulated
// instructions (buildInstrs), the fast-forward's host evaluation
// (ffCompute) and its static shape (shape) all read it. The z-direction
// terms come from the tile's own column (shifted operands, skipping the
// meshless end); lateral terms multiply a halo column and are skipped
// entirely beyond the global mesh boundary, mirroring the reference's
// per-point conditionals (which are uniform along a Z-column).
func (p *Program3D) terms(st *tile3D, emit func(term)) {
	z := p.Mesh.NZ
	u, v := st.offU, st.offV
	for k := 1; k <= p.Spec.Widths[2] && k < z; k++ {
		first := wse.OpMulAcc
		if k == 1 {
			first = wse.OpMul // u[z] = zm[z] * v[z-1] opens the sum
		}
		emit(term{first, u + k, st.offZ[zmIdx][k-1] + k, v, z - k})    // u[z] += zm_k[z] * v[z-k]
		emit(term{wse.OpMulAcc, u, st.offZ[zpIdx][k-1], v + k, z - k}) // u[z] += zp_k[z] * v[z+k]
	}
	for d := HaloDir(0); d < NumHaloDirs; d++ {
		for k := 1; k <= p.Spec.Widths[axisOf(d)]; k++ {
			if p.inMesh(st, d, k) {
				emit(term{wse.OpMulAcc, u, st.offC[d][k-1], st.offH[d][k-1], z}) // u += c_{d,k} * halo_{d,k}
			}
		}
	}
	emit(term{wse.OpAdd, u, u, v, z}) // u += v (unit main diagonal)
}

// sendOff is the column tile st sends toward its d-neighbour in relay
// round r — what that neighbour needs for distance r: the tile's own
// iterate in round 1, the distance-(r−1) halo from the opposite side
// after that.
func sendOff(st *tile3D, d HaloDir, r int) int {
	if r == 1 {
		return st.offV
	}
	return st.offH[opposite(d)][r-2]
}

// hops walks the directions that exchange a column at tile st in relay
// round r, with the column sent (sendOff) and the halo column the
// incoming one is stored to. The link must exist on the fabric and the
// direction's axis must still have halo columns to fill; the payload's
// global-mesh membership does not gate the transfer — both endpoints of
// every on-fabric link run the same schedule each round, which is what
// keeps the per-color FIFOs sequenced and free of deadlock.
func (p *Program3D) hops(st *tile3D, r int, emit func(d HaloDir, send, store int)) {
	for d := HaloDir(0); d < NumHaloDirs; d++ {
		if st.from[d] != nil && r <= p.Spec.Widths[axisOf(d)] {
			emit(d, sendOff(st, d, r), st.offH[d][r-1])
		}
	}
}

// armTile prepares one application: zeroes the result column, rewinds
// (on first use, builds) the instructions, and launches the first
// exchange round.
func (p *Program3D) armTile(ti int) {
	st := p.tiles[ti]
	clear(st.tile.Arena.Slice(st.offU, p.Mesh.NZ))
	p.done[ti] = false
	if st.ops == nil {
		p.buildInstrs(st)
	}
	for i := range st.ops {
		st.ops[i].Reset()
	}
	for i := range st.xfer {
		st.xfer[i].send.Reset()
		st.xfer[i].store.Reset()
	}
	if st.dotTask != nil {
		p.partials[ti] = 0
		st.dot.Reset()
	}
	st.round, st.exLeft = 0, 0
	p.launchRound(st, st.tile.Core)
}

// buildInstrs builds tile st's instructions once: the compute task body
// (terms), the fused dot and the relay rounds' thread pairs (hops).
func (p *Program3D) buildInstrs(st *tile3D) {
	z := p.Mesh.NZ
	a := st.tile.Arena

	w := p.Spec.Widths
	st.ops = make([]wse.MemOp, 0, 2*(w[0]+w[1]+w[2])+1)
	p.terms(st, func(t term) { st.ops = append(st.ops, t.memOp(a)) })
	st.compute.Instrs = make([]wse.Instr, len(st.ops))
	for i := range st.ops {
		st.compute.Instrs[i] = &st.ops[i]
	}
	if st.dotTask != nil {
		st.dot = wse.DotMixed{
			A:     tensor.Vec1D(st.offU, z),
			B:     tensor.Vec1D(st.offU, z),
			Arena: a,
			Out:   &p.partials[st.ti],
		}
		st.dotTask.Instrs = []wse.Instr{&st.dot}
	}

	st.xfer = make([]haloXfer, p.rounds*int(NumHaloDirs))
	for r := 1; r <= p.rounds; r++ {
		p.hops(st, r, func(d HaloDir, send, store int) {
			st.xfer[(r-1)*int(NumHaloDirs)+int(d)] = haloXfer{
				send: wse.SendMem{
					Color: p.base + fabric.Color(haloOut[d]),
					Src:   tensor.Vec1D(send, z),
					Arena: a, Total: z,
				},
				store: wse.StreamStore{
					Src:   wse.StreamSource{B: st.from[d]},
					Dst:   tensor.Vec1D(store, z),
					Arena: a, Total: z,
				},
			}
		})
	}
	st.exDone = func(c *wse.Core) {
		st.exLeft--
		if st.exLeft == 0 {
			p.launchRound(st, c)
		}
	}
}

// launchRound advances tile st to its next non-empty exchange round and
// launches its threads, or activates the compute task once all rounds
// are done. Slots 0–3 send, 4–7 store, reused each round (a round only
// starts after the previous round's threads all completed, so the slots
// are free).
func (p *Program3D) launchRound(st *tile3D, core *wse.Core) {
	for st.exLeft == 0 {
		st.round++
		if st.round > p.rounds {
			core.Activate(st.compute)
			return
		}
		p.hops(st, st.round, func(d HaloDir, _, _ int) {
			x := &st.xfer[(st.round-1)*int(NumHaloDirs)+int(d)]
			core.LaunchThread(int(d), "halo_tx", &x.send, st.exDone)
			core.LaunchThread(int(NumHaloDirs+d), "halo_rx", &x.store, st.exDone)
			st.exLeft += 2
		})
		// Nothing to move this round (narrow axis or edge tile): next.
	}
}

// Run executes one application and returns the cycles it took.
// Off-wafer halo columns must already hold the current neighbouring
// iterates (the multiwafer host injects them, charging the edge-I/O
// model separately). Under wse.EngineFastForward an eligible
// application is fast-forwarded — memory advanced by host loops with
// the same roundings, counters by the exact exchange replay (see
// ff3d.go) — and anything else falls back to cycle simulation.
func (p *Program3D) Run(maxCycles int64) (int64, error) {
	if cycles, ok := p.tryFastForward(maxCycles); ok {
		return cycles, nil
	}
	return p.program.Run(maxCycles)
}

// TileMemoryWords returns the arena words one tile of this program
// uses: a coefficient column per stencil point less the centre, the
// iterate and result columns, and a halo column per lateral point —
// (4(Wx+Wy) + 2Wz + 2)·Z words; 12·Z at width 1.
func (p *Program3D) TileMemoryWords() int {
	w := p.Spec.Widths
	return (4*(w[0]+w[1]) + 2*w[2] + 2) * p.Mesh.NZ
}
