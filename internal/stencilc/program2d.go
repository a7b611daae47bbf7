package stencilc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// Program2D is a compiled 2D block-halo stencil program: each tile owns
// a b×b block of the mesh and the coefficient diagonals for it, computes
// the spec's products of one application into an output region extended
// by a one-point halo, and exchanges output halos with its four
// neighbours over fabric streams in two rounds — first the ±x columns of
// height b+2, then the ±y rows of width b, folding corner contributions
// through the x round so no diagonal communication is needed (box and
// star specs share the exchange schedule; a star simply emits four fewer
// scatter instructions).
//
// Per tile the program is: a "local" task of one block FMAC instruction
// per stencil point (scatter form), whose completion launches the
// x-round threads (two halo-column sends, two stream adds from the
// neighbour streams); their completion launches the y-round threads;
// the y round completes the application — or, for ReduceSumSq specs,
// hands off to a fused per-tile Σy² dot task. All scheduling is
// tile-local — cross-tile signalling happens only through the fabric —
// so the program is bit-identical under the sequential and sharded
// engines, and bit-identical to Reference2D (same rounding order
// everywhere; the equivalence tests assert both).
type Program2D struct {
	program
	Mesh stencil.Mesh2D
	B    int // block edge (even, ≥ 2)

	points [][2]int // spec point set, row-major ascending offsets
	tiles  []*tile2D
}

type tile2D struct {
	tile *wse.Tile
	ti   int // fabric row-major index
	x, y int // tile coordinate

	offC []int // coefficient blocks, b² each, one per point, block row-major
	offV int   // iterate block, b²
	offE int   // extended output region, (b+2)², cell (i,j) at (i+1)+(j+1)(b+2)

	// Neighbour streams, indexed by the direction the words travel:
	// from[ColEast] carries the west neighbour's eastbound halo, etc.
	from [4]*wse.StreamBuf

	localTask *wse.Task
	dotTask   *wse.Task // fused Σy², nil unless ReduceSumSq
	round     int       // exchange rounds launched so far
	exLeft    int       // outstanding threads of the current round

	// The instructions of one application, built once by Compile2D and
	// rewound by armTile: the scatter body, the fused dot, and the two
	// exchange rounds' threads.
	ops    []wse.MemOp
	dot    wse.DotMixed
	xfer   [2]round2D // the ±x round, then the ±y round
	exDone func(*wse.Core)
}

// round2D is one exchange round's threads at a tile, one leg per side
// (x: west then east; y: north then south): the halo line sent to that
// neighbour and the fold of the line it sends back. A side off the
// fabric has no leg.
type round2D struct {
	on   [2]bool
	send [2]wse.SendMem
	add  [2]wse.StreamAdd
}

// roundNames2D names the send and fold threads of the two rounds.
var roundNames2D = [2][2]string{{"xh_tx", "xh_rx"}, {"yh_tx", "yh_rx"}}

// Compile2D lowers spec onto mach as a block-halo program for the
// normalized operator op, with b×b blocks. The mesh must tile the fabric
// exactly (NX = b·FabricW, NY = b·FabricH) and b must be even: fabric
// words carry two fp16 elements, and an even b keeps every halo transfer
// (b+2 column elements, b row elements) whole-word so no pad element is
// left behind in a stream buffer between applications. base is the first
// of the four directional exchange colors.
func Compile2D(mach *wse.Machine, spec Spec, op *stencil.Op9, b int, base fabric.Color) (*Program2D, error) {
	if err := spec.checkLowerable(); err != nil {
		return nil, err
	}
	if spec.Dim != 2 {
		return nil, fmt.Errorf("stencilc: Compile2D needs a 2D spec, got dim %d", spec.Dim)
	}
	if spec.Widths[0] != 1 || spec.Widths[1] != 1 {
		return nil, unsupported("the 2D block lowering exchanges one-point halos; widths (%d,%d) need the 3D relay schedule",
			spec.Widths[0], spec.Widths[1])
	}
	m := op.M
	if b < 2 || b%2 != 0 {
		return nil, fmt.Errorf("stencilc: 2D block edge %d must be even and >= 2", b)
	}
	if m.NX != b*mach.Cfg.FabricW || m.NY != b*mach.Cfg.FabricH {
		return nil, fmt.Errorf("stencilc: mesh %dx%d does not tile fabric %dx%d with %d×%d blocks",
			m.NX, m.NY, mach.Cfg.FabricW, mach.Cfg.FabricH, b, b)
	}
	base2D, err := newProgram(mach, spec, base)
	if err != nil {
		return nil, err
	}
	p := &Program2D{program: base2D, Mesh: m, B: b}
	p.arm = p.armTile
	p.points = spec.points2D()

	// Per-tile memory, stream subscriptions, tasks.
	w, h := mach.Cfg.FabricW, mach.Cfg.FabricH
	p.tiles = make([]*tile2D, w*h)
	bufs := wse.NewStreamBufs(NumExchangeColors*w*h, 4)
	launch := func(c *wse.Core) { p.launchRound(p.tiles[c.Index()], c) }
	finish := func(c *wse.Core) { p.done[c.Index()] = true }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tl := mach.TileAt(fabric.Coord{X: x, Y: y})
			st := &tile2D{tile: tl, ti: y*w + x, x: x, y: y}
			lay := tileAlloc{a: tl.Arena}
			st.offC = make([]int, len(p.points))
			for k := range st.offC {
				st.offC[k] = lay.alloc(fmt.Sprintf("c%d", k), b*b)
			}
			st.offV = lay.alloc("v", b*b)
			st.offE = lay.alloc("ext", (b+2)*(b+2))
			if lay.err != nil {
				return nil, fmt.Errorf("stencilc: tile (%d,%d): %v", x, y, lay.err)
			}

			sub := func(dir int, has bool) {
				if has {
					st.from[dir] = &bufs[st.ti*NumExchangeColors+dir]
					tl.Core.Subscribe(base+fabric.Color(dir), st.from[dir])
				}
			}
			sub(ColEast, x > 0) // west neighbour's eastbound words
			sub(ColWest, x < w-1)
			sub(ColSouth, y > 0)
			sub(ColNorth, y < h-1)

			st.localTask = tl.Core.AddTask(&wse.Task{Name: "spmv2d", OnComplete: launch})
			if spec.Reduce == ReduceSumSq {
				st.dotTask = tl.Core.AddTask(&wse.Task{Name: "sumsq", OnComplete: finish})
			}
			p.buildInstrs(st)
			p.tiles[st.ti] = st
		}
	}
	if err := p.LoadCoeff(op); err != nil {
		return nil, err
	}
	return p, nil
}

// off9Index maps a unit-width 2D point offset to its stencil.Off9 slot.
func off9Index(off [2]int) int { return (off[1]+1)*3 + (off[0] + 1) }

// LoadCoeff (re)loads the coefficient diagonals. The solver calls this
// between outer iterations when the operator changes; routing, memory
// layout and task structure are reused. The operator must have a unit
// centre coefficient, live on the same mesh, and — for star specs — have
// zero coefficients on the corner diagonals the point set omits; any
// other is refused with the program untouched.
func (p *Program2D) LoadCoeff(op *stencil.Op9) error {
	m := p.Mesh
	if op.M != m {
		return fmt.Errorf("stencilc: operator mesh %v does not match program mesh %v", op.M, m)
	}
	if !op.IsUnitDiagonal() {
		return fmt.Errorf("stencilc: the 2D block program requires a unit centre coefficient")
	}
	if len(p.points) < 9 {
		// The star program never multiplies the corner diagonals; a
		// nonzero one would silently change the operator.
		inSpec := map[int]bool{}
		for _, off := range p.points {
			inSpec[off9Index(off)] = true
		}
		for k := range op.C {
			if inSpec[k] {
				continue
			}
			for _, v := range op.C[k] {
				if v != 0 {
					return fmt.Errorf("stencilc: operator has a nonzero coefficient on diagonal %v outside the %s point set",
						stencil.Off9[k], p.Spec.Points)
				}
			}
		}
	}
	b := p.B
	for _, st := range p.tiles {
		a := st.tile.Arena
		for j := 0; j < b; j++ {
			for i := 0; i < b; i++ {
				gx, gy := st.x*b+i, st.y*b+j
				for kk, off := range p.points {
					// Scatter form: source cell S contributes
					// C[k][P]·v[S] to P = S − off_k; the tile stores the
					// coefficient sampled at P, zero beyond the mesh
					// (Dirichlet truncation; a zero product is a bitwise
					// no-op on the accumulator).
					px, py := gx-off[0], gy-off[1]
					v := fp16.Zero
					if m.In(px, py) {
						v = fp16.FromFloat64(op.C[off9Index(off)][m.Index(px, py)])
					}
					a.Set(st.offC[kk]+j*b+i, v)
				}
			}
		}
	}
	return nil
}

// extCol returns the descriptor of extended-output column i ∈ [-1, b]
// (b+2 elements, rows j = -1..b).
func (p *Program2D) extCol(st *tile2D, i int) tensor.Descriptor {
	return tensor.Strided(st.offE+i+1, p.B+2, p.B+2)
}

// extRow returns the descriptor of extended-output row j ∈ [-1, b]
// restricted to the block columns i = 0..b-1 (b elements) — the y-round
// halo shape; corner cells travelled with the x round.
func (p *Program2D) extRow(st *tile2D, j int) tensor.Descriptor {
	return tensor.Strided(st.offE+1+(j+1)*(p.B+2), p.B, 1)
}

// buildInstrs builds tile st's instructions once: one scatter FMAC per
// stencil point, the fused dot, and the two exchange rounds — ±x columns
// of height b+2, then ±y rows of width b (corners already folded by the
// x round). Each side's leg sends the halo line just outside the block
// toward that neighbour and accumulates the neighbour's incoming line
// into the block's edge line.
func (p *Program2D) buildInstrs(st *tile2D) {
	b := p.B
	a := st.tile.Arena
	st.ops = make([]wse.MemOp, len(p.points))
	st.localTask.Instrs = make([]wse.Instr, len(p.points))
	for kk, off := range p.points {
		dx, dy := -off[0], -off[1]
		st.ops[kk] = wse.MemOp{
			Kind:  wse.OpMulAcc,
			Arena: a,
			Dst:   tensor.Mat2D(st.offE+(1+dx)+(1+dy)*(b+2), b, b, b+2),
			A:     tensor.Vec1D(st.offV, b*b),
			B:     tensor.Vec1D(st.offC[kk], b*b),
		}
		st.localTask.Instrs[kk] = &st.ops[kk]
	}
	if st.dotTask != nil {
		result := tensor.Mat2D(st.offE+1+(b+2), b, b, b+2) // the block interior
		st.dot = wse.DotMixed{A: result, B: result, Arena: a, Out: &p.partials[st.ti]}
		st.dotTask.Instrs = []wse.Instr{&st.dot}
	}

	type leg struct {
		out, in   int // colors: toward the neighbour, and its words arriving
		halo, acc tensor.Descriptor
	}
	for r, rd := range [2]struct {
		n    int // elements per transfer
		legs [2]leg
	}{
		{b + 2, [2]leg{
			{ColWest, ColEast, p.extCol(st, -1), p.extCol(st, 0)},
			{ColEast, ColWest, p.extCol(st, b), p.extCol(st, b-1)}}},
		{b, [2]leg{
			{ColNorth, ColSouth, p.extRow(st, -1), p.extRow(st, 0)},
			{ColSouth, ColNorth, p.extRow(st, b), p.extRow(st, b-1)}}},
	} {
		x := &st.xfer[r]
		for i, l := range rd.legs {
			if st.from[l.in] == nil {
				continue // no neighbour on this side
			}
			x.on[i] = true
			x.send[i] = wse.SendMem{Color: p.base + fabric.Color(l.out), Src: l.halo, Arena: a, Total: rd.n}
			x.add[i] = wse.StreamAdd{Src: wse.StreamSource{B: st.from[l.in]}, Acc: l.acc, Arena: a, Total: rd.n}
		}
	}
	st.exDone = func(c *wse.Core) {
		st.exLeft--
		if st.exLeft == 0 {
			p.launchRound(st, c)
		}
	}
}

// armTile prepares one application: zeroes the extended output
// (descriptor re-aliasing, free as in the 3D kernel's armTile), rewinds
// the instructions, and activates the local task.
func (p *Program2D) armTile(ti int) {
	st := p.tiles[ti]
	clear(st.tile.Arena.Slice(st.offE, (p.B+2)*(p.B+2)))
	for i := range st.ops {
		st.ops[i].Reset()
	}
	for r := range st.xfer {
		x := &st.xfer[r]
		for i := range x.on {
			x.send[i].Reset()
			x.add[i].Reset()
		}
	}
	if st.dotTask != nil {
		p.partials[ti] = 0
		st.dot.Reset()
	}
	p.done[ti] = false
	st.round, st.exLeft = 0, 0
	st.tile.Core.Activate(st.localTask)
}

// launchRound starts tile st's next exchange round with a neighbour in
// it — sends in slots 0.., then the stream adds, the same slots both
// rounds (a round starts only after the previous round's threads all
// completed) — or, after the y round, finishes the application: directly
// for plain specs, through the fused reduction task otherwise. It runs
// on the owning core, from the local task's OnComplete and from the last
// thread of a round.
func (p *Program2D) launchRound(st *tile2D, c *wse.Core) {
	for st.exLeft == 0 {
		if st.round == len(st.xfer) {
			if st.dotTask != nil {
				c.Activate(st.dotTask)
			} else {
				p.done[st.ti] = true
			}
			return
		}
		x, names := &st.xfer[st.round], roundNames2D[st.round]
		st.round++
		for i, on := range x.on {
			if on {
				c.LaunchThread(st.exLeft, names[0], &x.send[i], st.exDone)
				st.exLeft++
			}
		}
		for i, on := range x.on {
			if on {
				c.LaunchThread(st.exLeft, names[1], &x.add[i], st.exDone)
				st.exLeft++
			}
		}
	}
}

// LoadVector scatters the global iterate v (mesh row-major) into the
// tiles' block-local iterate storage.
func (p *Program2D) LoadVector(v []fp16.Float16) {
	b := p.B
	for ti, st := range p.tiles {
		blk := p.Iterate(ti)
		for j := 0; j < b; j++ {
			copy(blk[j*b:(j+1)*b], v[p.Mesh.Index(st.x*b, st.y*b+j):])
		}
	}
}

// Result gathers the block interiors into a global mesh-indexed vector.
func (p *Program2D) Result() []fp16.Float16 {
	b := p.B
	out := make([]fp16.Float16, p.Mesh.N())
	blk := make([]fp16.Float16, b*b)
	for ti, st := range p.tiles {
		p.CopyResult(ti, blk)
		for j := 0; j < b; j++ {
			copy(out[p.Mesh.Index(st.x*b, st.y*b+j):], blk[j*b:(j+1)*b])
		}
	}
	return out
}

// Iterate returns tile i's live iterate block (b² elements of arena
// storage, block row-major); the host writes the source vector here
// before Run, a bit-verbatim copy.
func (p *Program2D) Iterate(i int) []fp16.Float16 {
	return p.tiles[i].tile.Arena.Slice(p.tiles[i].offV, p.B*p.B)
}

// CopyResult copies tile i's result — the block interior of its extended
// output, block row-major — to dst.
func (p *Program2D) CopyResult(i int, dst []fp16.Float16) {
	st, b := p.tiles[i], p.B
	for j := 0; j < b; j++ {
		copy(dst[j*b:(j+1)*b], st.tile.Arena.Slice(st.offE+1+(j+1)*(b+2), b))
	}
}
