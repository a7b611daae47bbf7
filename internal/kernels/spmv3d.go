package kernels

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/tensor"
	"repro/internal/wse"
)

// FIFODepth is the capacity, in elements, of each of the five product
// FIFOs ("float16 term[5][20]; We used a FIFO depth of 20").
const FIFODepth = 20

// SpMV3D is the wafer program of Listing 1: u = A·v for a unit-diagonal
// 7-point stencil, with the X×Y mesh mapped across the fabric and the Z
// dimension local to each tile. Each application exchanges iterate
// vectors with the four neighbours over the Figure 5 tessellation
// routing, multiplies the six stored diagonals in background threads,
// forwards products through hardware FIFOs to a summation task, and
// signals completion through the two-way-barrier task tree.
type SpMV3D struct {
	M    *wse.Machine
	Mesh stencil.Mesh
	Op   *stencil.Op7Half

	tiles []*spmvTile
}

// direction indexes the four neighbour streams.
type direction int

const (
	dirXP direction = iota // stream from the +x neighbour
	dirXM
	dirYP
	dirYM
)

var dirPort = [4]fabric.Port{dirXP: fabric.East, dirXM: fabric.West, dirYP: fabric.South, dirYM: fabric.North}
var dirDelta = [4][2]int{dirXP: {1, 0}, dirXM: {-1, 0}, dirYP: {0, 1}, dirYM: {0, -1}}

type spmvTile struct {
	tile *wse.Tile
	x, y int

	// Arena offsets (the listing's memory objects).
	offXP, offXM, offYP, offYM int // coefficient vectors, length Z
	offZP                      int // length Z   (shift-aligned ZM diagonal)
	offZM                      int // length Z+1 (shift-aligned ZP diagonal)
	offV                       int // iterate, length Z+1 (v[Z] = 0 pad)
	offU                       int // result, length Z+2 (u[0], u[Z+1] scratch)
	offZero                    int // one zero word for boundary streams

	fifos [5]tensor.FIFO // xp, xm, yp, ym, zp

	bufs [4]*wse.StreamBuf // neighbour streams
	zpBf *wse.StreamBuf    // looped-back local stream, zp consumer
	cBf  *wse.StreamBuf    // looped-back local stream, diagonal consumer

	// The tasks, in registration order: sumtask, the completion tree of
	// Listing 1 (xdone, ydone, cdone, xydone, xycdone), spmv. The named
	// pointers below point into the array.
	tasks                                [7]wse.Task
	spmvTask                             *wse.Task
	sumTask                              *wse.Task
	xdone, ydone, cdone, xydone, xycdone *wse.Task

	// The instructions of one application, built once by buildTasks and
	// rewound by armTile: the broadcast send, the zm initialization, the
	// five multiplier threads, the diagonal add, the six consumers'
	// completion triggers, and sumtask's five FIFO adds.
	send    wse.SendMem
	zmOp    wse.MemOp
	mul     [5]wse.MulToFIFO
	diag    wse.StreamAdd
	trig    [6]func(*wse.Core) // mul[0..4], diag
	sumAdds [5]wse.FIFOAdd
	zeros   [4]tensor.Descriptor // boundary streams: Z reads of one zero word
	// The two tasks' instruction lists: sumtask's adds, spmv's zmOp.
	sumInstrs  [5]wse.Instr
	spmvInstrs [1]wse.Instr

	done bool
}

// NewSpMV3D builds the program for mesh m on machine mach. The mesh's
// X×Y extent must equal the fabric, and Z must be even (two fp16
// elements travel per 32-bit fabric word).
func NewSpMV3D(mach *wse.Machine, op *stencil.Op7Half) (*SpMV3D, error) {
	m := op.M
	if m.NX != mach.Cfg.FabricW || m.NY != mach.Cfg.FabricH {
		return nil, fmt.Errorf("kernels: mesh %v does not match fabric %dx%d",
			m, mach.Cfg.FabricW, mach.Cfg.FabricH)
	}
	if m.NZ%2 != 0 {
		return nil, fmt.Errorf("kernels: Z=%d must be even (two fp16 per fabric word)", m.NZ)
	}
	p := &SpMV3D{M: mach, Mesh: m, Op: op}
	z := m.NZ

	// Static routing: every tile broadcasts its iterate on its own color
	// to all existing neighbours and loops it back to itself; neighbour
	// broadcasts arrive on four distinct colors and route to the core.
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			at := fabric.Coord{X: x, Y: y}
			own := BroadcastColor(x, y)
			// Broadcast fans out to every existing neighbour and loops
			// back through the ramp for the z and diagonal streams.
			outs := fabric.Mask(fabric.Ramp)
			for d := 0; d < 4; d++ {
				nx, ny := x+dirDelta[d][0], y+dirDelta[d][1]
				if nx >= 0 && nx < m.NX && ny >= 0 && ny < m.NY {
					outs |= fabric.Mask(portToward(dirDelta[d][0], dirDelta[d][1]))
				}
			}
			p.M.Fab.SetRoute(at, fabric.Ramp, own, outs)
			for d := 0; d < 4; d++ {
				nx, ny := x+dirDelta[d][0], y+dirDelta[d][1]
				if nx >= 0 && nx < m.NX && ny >= 0 && ny < m.NY {
					p.M.Fab.SetRoute(at, dirPort[d], BroadcastColor(nx, ny), fabric.Mask(fabric.Ramp))
				}
			}
		}
	}

	// Per-tile memory, FIFOs, stream buffers, tasks.
	p.tiles = make([]*spmvTile, m.NX*m.NY)
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			tl := mach.TileAt(fabric.Coord{X: x, Y: y})
			st := &spmvTile{tile: tl, x: x, y: y}
			a := tl.Arena
			var err error
			alloc := func(name string, n int) int {
				if err != nil {
					return 0
				}
				var base int
				base, err = a.Alloc(name, n)
				return base
			}
			st.offXP = alloc("xp", z)
			st.offXM = alloc("xm", z)
			st.offYP = alloc("yp", z)
			st.offYM = alloc("ym", z)
			st.offZP = alloc("zp", z)
			st.offZM = alloc("zm", z+1)
			st.offV = alloc("v", z+1)
			st.offU = alloc("u", z+2)
			st.offZero = alloc("zero", 1)
			fifoBase := alloc("term", 5*FIFODepth)
			if err != nil {
				return nil, fmt.Errorf("kernels: tile (%d,%d): %v", x, y, err)
			}
			for k := 0; k < 5; k++ {
				st.fifos[k] = *tensor.NewFIFO(fifoBase+k*FIFODepth, FIFODepth)
			}

			// Stream buffers and color subscriptions.
			own := BroadcastColor(x, y)
			st.zpBf = wse.NewStreamBuf(4)
			st.cBf = wse.NewStreamBuf(4)
			tl.Core.Subscribe(own, st.zpBf)
			tl.Core.Subscribe(own, st.cBf)
			for d := 0; d < 4; d++ {
				nx, ny := x+dirDelta[d][0], y+dirDelta[d][1]
				if nx >= 0 && nx < m.NX && ny >= 0 && ny < m.NY {
					st.bufs[d] = wse.NewStreamBuf(4)
					tl.Core.Subscribe(BroadcastColor(nx, ny), st.bufs[d])
				}
			}

			p.buildTasks(st)
			p.tiles[y*m.NX+x] = st
		}
	}
	if err := p.LoadCoeff(op); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadCoeff rewrites the stored stencil coefficients in place, leaving
// the routing, task structure and memory layout untouched — so a built
// program (and the machine under it) can be reused for a new operator
// on the same mesh, which is what the service layer's warm-machine
// cache does between jobs. The x/y diagonals align directly with the
// meshpoint; the z diagonals are shift-aligned (see the zp_acc/zm_acc
// bases in the listing): the product of v[j] with zm[j] lands at u[j]
// (meshpoint j−1, so zm[j] holds the row-(j−1) ZP coefficient), and the
// product with zp[j] lands at u[j+2] (meshpoint j+1, so zp[j] holds the
// row-(j+1) ZM coefficient).
func (p *SpMV3D) LoadCoeff(op *stencil.Op7Half) error {
	m := p.Mesh
	if op.M != m {
		return fmt.Errorf("kernels: operator mesh %v does not match program mesh %v", op.M, m)
	}
	z := m.NZ
	for _, st := range p.tiles {
		a := st.tile.Arena
		for zz := 0; zz < z; zz++ {
			i := m.Index(st.x, st.y, zz)
			a.Set(st.offXP+zz, op.XP[i])
			a.Set(st.offXM+zz, op.XM[i])
			a.Set(st.offYP+zz, op.YP[i])
			a.Set(st.offYM+zz, op.YM[i])
			if zz+1 < z {
				a.Set(st.offZP+zz, op.ZM[m.Index(st.x, st.y, zz+1)])
			} else {
				a.Set(st.offZP+zz, fp16.Zero) // product targets scratch u[Z+1]
			}
		}
		a.Set(st.offZM+0, fp16.Zero) // product targets scratch u[0]
		for j := 1; j <= z; j++ {
			a.Set(st.offZM+j, op.ZP[m.Index(st.x, st.y, j-1)])
		}
	}
	p.Op = op
	return nil
}

// portToward returns the output port facing the neighbour at offset
// (dx, dy).
func portToward(dx, dy int) fabric.Port {
	switch {
	case dx == 1:
		return fabric.East
	case dx == -1:
		return fabric.West
	case dy == 1:
		return fabric.South
	default:
		return fabric.North
	}
}

// buildTasks registers the task structure of Listing 1 on the tile's
// core and builds the instructions, closures and instruction lists of an
// application once; armTile only rewinds them.
func (p *SpMV3D) buildTasks(st *spmvTile) {
	z := p.Mesh.NZ
	a := st.tile.Arena
	core := st.tile.Core

	add := func(i int, t wse.Task) *wse.Task {
		st.tasks[i] = t
		return core.AddTask(&st.tasks[i])
	}

	// Summation task: five FIFO-draining adds aliasing u, higher priority
	// "to avoid a race condition with the synchronization task tree".
	// Accumulator bases follow the listing: xp/xm/yp/ym at u+1, zp at u+2.
	st.sumTask = add(0, wse.Task{Name: "sumtask", Priority: true, Instrs: st.sumInstrs[:]})
	accBase := [5]int{st.offU + 1, st.offU + 1, st.offU + 1, st.offU + 1, st.offU + 2}
	activateSum := func() { core.Activate(st.sumTask) }
	for k := range st.sumAdds {
		st.sumAdds[k] = wse.FIFOAdd{FIFO: &st.fifos[k], Acc: tensor.Vec1D(accBase[k], z), Arena: a, Total: z}
		st.sumInstrs[k] = &st.sumAdds[k]
		st.fifos[k].OnPush = activateSum
	}

	// Completion tree. All tree tasks start blocked (sched_block in the
	// listing); each re-blocks itself when it fires.
	st.xdone = add(1, wse.Task{Name: "xdone"})
	st.ydone = add(2, wse.Task{Name: "ydone"})
	st.cdone = add(3, wse.Task{Name: "cdone"})
	st.xydone = add(4, wse.Task{Name: "xydone"})
	st.xycdone = add(5, wse.Task{Name: "xycdone"})
	for _, t := range []*wse.Task{st.xdone, st.ydone, st.cdone, st.xydone, st.xycdone} {
		core.Block(t)
	}
	st.xdone.OnComplete = func(c *wse.Core) { c.Block(st.xdone); c.Unblock(st.xydone) }
	st.ydone.OnComplete = func(c *wse.Core) { c.Block(st.ydone); c.Activate(st.xydone) }
	st.xydone.OnComplete = func(c *wse.Core) { c.Block(st.xydone); c.Unblock(st.xycdone) }
	st.cdone.OnComplete = func(c *wse.Core) { c.Block(st.cdone); c.Activate(st.xycdone) }
	st.xycdone.OnComplete = func(c *wse.Core) { c.Block(st.xycdone); st.done = true } // activate(bicg)

	// The spmv task body: the zm initialization runs synchronously in the
	// main thread ("completes before any subsequent lines are executed"),
	// then the six consumer threads launch.
	st.zmOp = wse.MemOp{
		Kind:  wse.OpMul,
		Arena: a,
		Dst:   tensor.Vec1D(st.offU, z+1),
		A:     tensor.Vec1D(st.offV, z+1),
		B:     tensor.Vec1D(st.offZM, z+1),
	}
	st.spmvInstrs[0] = &st.zmOp
	st.spmvTask = add(6, wse.Task{
		Name:       "spmv",
		Instrs:     st.spmvInstrs[:],
		OnComplete: func(*wse.Core) { p.launchConsumers(st) },
	})

	// The broadcast thread (c_tx[] = v1[]).
	st.send = wse.SendMem{Color: BroadcastColor(st.x, st.y), Src: tensor.Vec1D(st.offV, z), Arena: a, Total: z}

	// The five multiplier threads. Boundary tiles without a neighbour in
	// some direction multiply a zero stream from memory instead, the
	// zero-padding idiom of the listing: a zero-stride descriptor over
	// one zero word.
	coeff := [5]int{dirXP: st.offXP, dirXM: st.offXM, dirYP: st.offYP, dirYM: st.offYM, 4: st.offZP}
	for d := range st.mul {
		var src wse.ElemSource
		switch {
		case d == 4: // zp, from the looped-back local stream
			src = wse.StreamSource{B: st.zpBf}
		case st.bufs[d] != nil:
			src = wse.StreamSource{B: st.bufs[d]}
		default:
			st.zeros[d] = tensor.Strided(st.offZero, z, 0)
			src = wse.MemSource{A: a, D: &st.zeros[d]}
		}
		st.mul[d] = wse.MulToFIFO{Src: src, Coeff: tensor.Vec1D(coeff[d], z), FIFO: &st.fifos[d], Arena: a, Total: z}
	}
	// The main diagonal, no multiply (c_acc[] = c_acc[] + c_rx[]).
	st.diag = wse.StreamAdd{Src: wse.StreamSource{B: st.cBf}, Acc: tensor.Vec1D(st.offU+1, z), Arena: a, Total: z}
	st.trig = [6]func(*wse.Core){
		dirXP: func(c *wse.Core) { c.Activate(st.xdone) },
		dirXM: func(c *wse.Core) { c.Unblock(st.xdone) },
		dirYP: func(c *wse.Core) { c.Activate(st.ydone) },
		dirYM: func(c *wse.Core) { c.Unblock(st.ydone) },
		4:     func(c *wse.Core) { c.Activate(st.cdone) },
		5:     func(c *wse.Core) { c.Unblock(st.cdone) },
	}
}

// armTile prepares one application: zeroes u, rewinds the instructions,
// launches the broadcast thread and activates the spmv task.
func (p *SpMV3D) armTile(st *spmvTile) {
	z := p.Mesh.NZ
	a := st.tile.Arena
	core := st.tile.Core
	clear(a.Slice(st.offU, z+2))
	a.Set(st.offV+z, fp16.Zero)  // iterate pad
	a.Set(st.offZero, fp16.Zero) // boundary stream source

	st.send.Reset()
	st.zmOp.Reset()
	for k := range st.mul {
		st.mul[k].Reset()
		st.sumAdds[k].Reset()
	}
	st.diag.Reset()

	// Thread slot 5: c_tx[] = v1[].
	core.LaunchThread(5, "c_tx", &st.send, nil)
	st.done = false
	core.Activate(st.spmvTask)
}

var mulNames = [5]string{"xp_rx", "xm_rx", "yp_rx", "ym_rx", "zp_rx"}

// launchConsumers starts the five multiplier threads and the diagonal add
// thread (threads 0–4 and 6 of the listing).
func (p *SpMV3D) launchConsumers(st *spmvTile) {
	core := st.tile.Core
	for d := range st.mul {
		core.LaunchThread(d, mulNames[d], &st.mul[d], st.trig[d])
	}
	core.LaunchThread(6, "c_rx", &st.diag, st.trig[5])
}

// Iterate returns tile i's live iterate column (Z elements of arena
// storage; the pad element after it belongs to the program).
func (p *SpMV3D) Iterate(i int) []fp16.Float16 {
	return p.tiles[i].tile.Arena.Slice(p.tiles[i].offV, p.Mesh.NZ)
}

// CopyResult copies tile i's result column (u[1..Z] of the listing) to
// dst.
func (p *SpMV3D) CopyResult(i int, dst []fp16.Float16) {
	copy(dst, p.tiles[i].tile.Arena.Slice(p.tiles[i].offU+1, p.Mesh.NZ))
}

// LoadVector scatters the global iterate v (mesh-indexed) into the tiles.
func (p *SpMV3D) LoadVector(v []fp16.Float16) {
	m := p.Mesh
	for i, st := range p.tiles {
		copy(p.Iterate(i), v[m.Index(st.x, st.y, 0):])
	}
}

// Result gathers the global result u.
func (p *SpMV3D) Result() []fp16.Float16 {
	m := p.Mesh
	out := make([]fp16.Float16, m.N())
	for i, st := range p.tiles {
		p.CopyResult(i, out[m.Index(st.x, st.y, 0):][:m.NZ])
	}
	return out
}

// Run executes one SpMV application and returns the cycles it took.
// Completion means every tile's barrier tree fired and every FIFO add
// accumulated all Z elements (the priority summation task drains before
// control returns to the solver, as in the paper).
func (p *SpMV3D) Run(maxCycles int64) (int64, error) {
	for _, st := range p.tiles {
		p.armTile(st)
	}
	return p.M.RunUntil(func() bool {
		for _, st := range p.tiles {
			if !st.done {
				return false
			}
			for k := range st.sumAdds {
				if !st.sumAdds[k].Complete() {
					return false
				}
			}
		}
		return true
	}, maxCycles)
}

// TileMemoryWords returns the arena words one tile of this program uses,
// for the memory-capacity experiment.
func (p *SpMV3D) TileMemoryWords() int {
	z := p.Mesh.NZ
	return 4*z + z + (z + 1) + (z + 1) + (z + 2) + 1 + 5*FIFODepth
}
