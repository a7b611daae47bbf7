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
	M      *wse.Machine
	Mesh   stencil.Mesh // the global mesh
	Spec   Spec
	X0, Y0 int // global tile coordinate of fabric (0, 0)

	base   fabric.Color
	rounds int   // lateral relay rounds per application, max(Wx, Wy)
	ff     *ff3d // fast-forward plan, built lazily on first eligible Run
	tiles  []*tile3D

	partials []float32 // per-tile Σy² when Spec.Reduce == ReduceSumSq
}

type tile3D struct {
	tile   *wse.Tile
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
	done    bool

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
	if op.W != spec.Widths {
		return nil, fmt.Errorf("stencilc: operator widths %v do not match spec widths %v", op.W, spec.Widths)
	}
	m := op.M
	w, h := mach.Cfg.FabricW, mach.Cfg.FabricH
	if m.NZ%2 != 0 {
		return nil, fmt.Errorf("stencilc: Z=%d must be even (two fp16 per fabric word)", m.NZ)
	}
	if x0 < 0 || y0 < 0 || x0+w > m.NX || y0+h > m.NY {
		return nil, fmt.Errorf("stencilc: fabric %dx%d at (%d,%d) exceeds mesh %v", w, h, x0, y0, m)
	}
	if int(base)+NumExchangeColors > fabric.MaxColors {
		return nil, fmt.Errorf("stencilc: halo exchange needs %d colors starting at %d", NumExchangeColors, base)
	}
	p := &Program3D{M: mach, Mesh: m, Spec: spec, X0: x0, Y0: y0, base: base}
	if p.rounds = spec.Widths[0]; spec.Widths[1] > p.rounds {
		p.rounds = spec.Widths[1]
	}
	z := m.NZ

	// Static routing: the same four single-hop directional streams the
	// 2D block-halo program uses; relay rounds reuse them.
	RouteExchange(mach.Fab, w, h, base)

	p.tiles = make([]*tile3D, w*h)
	if spec.Reduce == ReduceSumSq {
		p.partials = make([]float32, w*h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tl := mach.TileAt(fabric.Coord{X: x, Y: y})
			st := &tile3D{tile: tl, x: x, y: y, gx: x0 + x, gy: y0 + y}
			a := tl.Arena
			var err error
			alloc := func(name string, n int) int {
				if err != nil {
					return 0
				}
				var off int
				off, err = a.Alloc(name, n)
				return off
			}
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				wd := spec.Widths[axisOf(d)]
				st.offC[d] = make([]int, wd)
				for k := 1; k <= wd; k++ {
					st.offC[d][k-1] = alloc(distName(latName[d], k), z)
				}
			}
			wz := spec.Widths[2]
			st.offZ[0] = make([]int, wz)
			st.offZ[1] = make([]int, wz)
			for k := 1; k <= wz; k++ {
				st.offZ[0][k-1] = alloc(distName("zp", k), z)
			}
			for k := 1; k <= wz; k++ {
				st.offZ[1][k-1] = alloc(distName("zm", k), z)
			}
			st.offV = alloc("v", z)
			st.offU = alloc("u", z)
			for d := HaloDir(0); d < NumHaloDirs; d++ {
				wd := spec.Widths[axisOf(d)]
				st.offH[d] = make([]int, wd)
				for k := 1; k <= wd; k++ {
					name := fmt.Sprintf("h%d", d)
					if k > 1 {
						name = fmt.Sprintf("h%d_%d", d, k)
					}
					st.offH[d][k-1] = alloc(name, z)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("stencilc: tile (%d,%d): %v", x, y, err)
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
				st.dotTask.OnComplete = func(c *wse.Core) { st.done = true }
				st.compute.OnComplete = func(c *wse.Core) { c.Activate(st.dotTask) }
			} else {
				st.compute.OnComplete = func(c *wse.Core) { st.done = true }
			}
			p.tiles[y*w+x] = st
		}
	}
	p.LoadCoeff(op)
	return p, nil
}

// zp/zm indices within tile3D.offZ.
const (
	zpIdx = 0
	zmIdx = 1
)

// LoadCoeff (re)loads the coefficient columns from the global operator.
// Routing, memory layout and task structure are reused; the operator
// must keep the program's mesh and widths.
func (p *Program3D) LoadCoeff(op *stencil.OpStarHalf) {
	if op.M != p.Mesh {
		panic(fmt.Sprintf("stencilc: operator mesh %v does not match program mesh %v", op.M, p.Mesh))
	}
	if op.W != p.Spec.Widths {
		panic(fmt.Sprintf("stencilc: operator widths %v do not match spec widths %v", op.W, p.Spec.Widths))
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
}

// Tiles returns the tile count (fabric row-major indexing).
func (p *Program3D) Tiles() int { return len(p.tiles) }

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

// Partials returns the per-tile Σy² partials of the last Run (fabric
// row-major), valid only for ReduceSumSq specs. Combine them with
// cluster.ExactSum32 for a bit-stable global reduction.
func (p *Program3D) Partials() []float32 { return p.partials }

// onFabric reports whether tile st's neighbour in direction d lies on
// this machine's fabric.
func (p *Program3D) onFabric(st *tile3D, d HaloDir) bool {
	return st.from[d] != nil
}

// inMesh reports whether tile st has a neighbour at distance dist in
// direction d on the global mesh at all.
func (p *Program3D) inMesh(st *tile3D, d HaloDir, dist int) bool {
	gx, gy := st.gx+dist*haloDelta[d][0], st.gy+dist*haloDelta[d][1]
	return gx >= 0 && gx < p.Mesh.NX && gy >= 0 && gy < p.Mesh.NY
}

// armTile prepares one application: zeroes the result column, rewinds
// (on first use, builds) the instructions, and launches the first
// exchange round.
func (p *Program3D) armTile(st *tile3D) {
	clear(st.tile.Arena.Slice(st.offU, p.Mesh.NZ))
	st.done = false
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
		p.partials[st.y*p.M.Cfg.FabricW+st.x] = 0
		st.dot.Reset()
	}
	st.round = 0
	p.launchRound(st, st.tile.Core)
}

// buildInstrs builds tile st's instructions once: the fixed-order
// compute task body, the fused dot and the relay rounds' thread pairs.
func (p *Program3D) buildInstrs(st *tile3D) {
	z := p.Mesh.NZ
	a := st.tile.Arena

	// Compute task body, in stencil.OpStarHalf.Apply's exact order. The
	// z-direction terms come from the tile's own column (shifted
	// descriptors, skipping the meshless end); lateral terms multiply a
	// halo column and are skipped entirely beyond the global mesh
	// boundary, mirroring the reference's per-point conditionals (which
	// are uniform along a Z-column).
	wz := p.Spec.Widths[2]
	ops := make([]wse.MemOp, 0, 2*wz+2*(p.Spec.Widths[0]+p.Spec.Widths[1])+1)
	emit := func(kind wse.MemOpKind, dst, x, y, n int) {
		ops = append(ops, wse.MemOp{Kind: kind, Arena: a,
			Dst: tensor.Vec1D(dst, n), A: tensor.Vec1D(x, n), B: tensor.Vec1D(y, n)})
	}
	if z > 1 {
		emit(wse.OpMul, st.offU+1, st.offZ[zmIdx][0]+1, st.offV, z-1)  // u[z] = zm[z] * v[z-1]
		emit(wse.OpMulAcc, st.offU, st.offZ[zpIdx][0], st.offV+1, z-1) // u[z] += zp[z] * v[z+1]
	}
	for k := 2; k <= wz; k++ {
		if z <= k {
			continue
		}
		emit(wse.OpMulAcc, st.offU+k, st.offZ[zmIdx][k-1]+k, st.offV, z-k) // u[z] += zm_k[z] * v[z-k]
		emit(wse.OpMulAcc, st.offU, st.offZ[zpIdx][k-1], st.offV+k, z-k)   // u[z] += zp_k[z] * v[z+k]
	}
	for d := HaloDir(0); d < NumHaloDirs; d++ {
		for k := 1; k <= p.Spec.Widths[axisOf(d)]; k++ {
			if p.inMesh(st, d, k) {
				emit(wse.OpMulAcc, st.offU, st.offC[d][k-1], st.offH[d][k-1], z) // u += c_{d,k} * halo_{d,k}
			}
		}
	}
	emit(wse.OpAdd, st.offU, st.offU, st.offV, z) // u += v (unit main diagonal)
	st.ops = ops
	st.compute.Instrs = make([]wse.Instr, len(ops))
	for i := range ops {
		st.compute.Instrs[i] = &ops[i]
	}
	if st.dotTask != nil {
		st.dot = wse.DotMixed{
			A:     tensor.Vec1D(st.offU, z),
			B:     tensor.Vec1D(st.offU, z),
			Arena: a,
			Out:   &p.partials[st.y*p.M.Cfg.FabricW+st.x],
		}
		st.dotTask.Instrs = []wse.Instr{&st.dot}
	}

	// Round r, direction d sends the column the d-neighbour needs for
	// distance r — the tile's own iterate in round 1, the distance-(r−1)
	// halo from the opposite side after that — and stores the incoming
	// column into halo (d, r).
	st.xfer = make([]haloXfer, p.rounds*int(NumHaloDirs))
	for r := 1; r <= p.rounds; r++ {
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			if !p.roundActive(st, d, r) {
				continue
			}
			src := st.offV
			if r > 1 {
				src = st.offH[opposite(d)][r-2]
			}
			st.xfer[(r-1)*int(NumHaloDirs)+int(d)] = haloXfer{
				send: wse.SendMem{
					Color: p.base + fabric.Color(haloOut[d]),
					Src:   tensor.Vec1D(src, z),
					Arena: a, Total: z,
				},
				store: wse.StreamStore{
					Src:   wse.StreamSource{B: st.from[d]},
					Dst:   tensor.Vec1D(st.offH[d][r-1], z),
					Arena: a, Total: z,
				},
			}
		}
	}
	st.exDone = func(c *wse.Core) {
		st.exLeft--
		if st.exLeft == 0 {
			p.launchRound(st, c)
		}
	}
}

// roundActive reports whether direction d participates in relay round r
// at tile st: the link must exist on the fabric and the direction's axis
// must still have halo columns to fill. The payload's global-mesh
// membership does not gate the transfer — both endpoints of every
// on-fabric link run the same schedule each round, which is what keeps
// the per-color FIFOs sequenced and free of deadlock.
func (p *Program3D) roundActive(st *tile3D, d HaloDir, r int) bool {
	return p.onFabric(st, d) && r <= p.Spec.Widths[axisOf(d)]
}

// launchRound advances tile st to its next non-empty exchange round and
// launches its threads, or activates the compute task once all rounds
// are done. Slots 0–3 send, 4–7 store, reused each round (a round only
// starts after the previous round's threads all completed, so the slots
// are free).
func (p *Program3D) launchRound(st *tile3D, core *wse.Core) {
	for {
		st.round++
		if st.round > p.rounds {
			core.Activate(st.compute)
			return
		}
		r := st.round
		st.exLeft = 0
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			if p.roundActive(st, d, r) {
				st.exLeft += 2
			}
		}
		if st.exLeft == 0 {
			continue // nothing to move this round (narrow axis or edge tile)
		}
		for d := HaloDir(0); d < NumHaloDirs; d++ {
			if !p.roundActive(st, d, r) {
				continue
			}
			x := &st.xfer[(r-1)*int(NumHaloDirs)+int(d)]
			core.LaunchThread(int(d), "halo_tx", &x.send, st.exDone)
			core.LaunchThread(int(NumHaloDirs+d), "halo_rx", &x.store, st.exDone)
		}
		return
	}
}

// Arm prepares every tile for one application without stepping the
// machine — for lock-step engine-equivalence tests that drive Step
// themselves. Run calls it implicitly.
func (p *Program3D) Arm() {
	for _, st := range p.tiles {
		p.armTile(st)
	}
}

// Done reports whether every tile has completed its application (the
// predicate Run waits on).
func (p *Program3D) Done() bool {
	for _, st := range p.tiles {
		if !st.done {
			return false
		}
	}
	return true
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
	p.Arm()
	return p.M.RunUntil(p.Done, maxCycles)
}

// TileMemoryWords returns the arena words one tile of this program
// uses: a coefficient column per stencil point less the centre, the
// iterate and result columns, and a halo column per lateral point —
// (4(Wx+Wy) + 2Wz + 2)·Z words; 12·Z at width 1.
func (p *Program3D) TileMemoryWords() int {
	w := p.Spec.Widths
	return (4*(w[0]+w[1]) + 2*w[2] + 2) * p.Mesh.NZ
}
