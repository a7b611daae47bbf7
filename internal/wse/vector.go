package wse

import (
	"sync/atomic"

	"repro/internal/fp16"
	"repro/internal/tensor"
)

// VectorPhase runs one arena-local vector instruction on every tile of a
// machine as that tile's phase task: an AXPY-class update (Apply) or the
// mixed-precision dot (Dot), the dot and update phases of the wafer
// BiCGStab. The phase is data — each call names the per-tile arena
// offsets of its operands — so nothing per tile is rebuilt per phase.
//
// Under EngineFastForward, from a state in which nothing but the phase
// can happen (see jumpable), a phase is one loop over the tiles: the
// element kernel the datapath runs (MemOpKind.Apply, fp16.DotMixedAcc
// from zero) on the tile's arena slices, StaticCycles' busy and lane
// tallies, the task left where its completion leaves it, and a jump of
// the clock. The per-tile element order is the stepped one, so every
// rounding is too. Any other engine or state activates each tile's
// instruction and steps the machine until all have completed; both
// paths leave the same arena bits, fingerprint and cycle count.
type VectorPhase struct {
	m     *Machine
	tasks []Task // tasks[i] runs on m.Tiles[i]

	// left counts the tasks of a stepped phase not yet complete: one
	// counter for the whole phase, decremented by every task's shared
	// OnComplete — concurrently under the sharded engine.
	left     atomic.Int64
	finished func() bool

	// ops, dots and slot are the stepping path's per-tile instructions,
	// built by the first stepped phase, so a machine that only jumps has
	// none: slot[2i] = &ops[i], slot[2i+1] = &dots[i].
	ops  []MemOp
	dots []DotMixed
	slot []Instr

	jumped, stepped int
}

// NewVectorPhase registers one phase task on every tile of m, after the
// tasks the tile already has.
func NewVectorPhase(m *Machine) *VectorPhase {
	v := &VectorPhase{m: m, tasks: make([]Task, len(m.Tiles))}
	v.finished = func() bool { return v.left.Load() == 0 }
	complete := func(*Core) { v.left.Add(-1) }
	for i, t := range m.Tiles {
		v.tasks[i] = Task{Name: "phase", OnComplete: complete}
		t.Core.AddTask(&v.tasks[i])
	}
	return v
}

// Counts reports how many phases ran as one loop and how many were
// stepped.
func (v *VectorPhase) Counts() (jumped, stepped int) { return v.jumped, v.stepped }

// Apply runs dst = kind(s, dst, a, b) over n elements on every tile,
// tile i's operands at arena offsets dst[i], a[i] and b[i] (b nil for
// the kinds that do not read it), and returns the phase's cycles.
func (v *VectorPhase) Apply(kind MemOpKind, s fp16.Float16, dst, a, b []int, n int) int64 {
	if d, lanes, ok := memOpCycles(n, v.m.Cfg.SIMDWidth); ok && v.jumpable() {
		for i, t := range v.m.Tiles {
			var bs []fp16.Float16
			if kind.readsB() {
				bs = t.Arena.Slice(b[i], n)
			}
			kind.Apply(s, t.Arena.Slice(dst[i], n), t.Arena.Slice(a[i], n), bs)
			v.retire(i, d, lanes)
		}
		return v.jump(d)
	}
	v.build()
	for i, t := range v.m.Tiles {
		op := &v.ops[i]
		*op = MemOp{Kind: kind, Arena: t.Arena, Dst: tensor.Vec1D(dst[i], n), A: tensor.Vec1D(a[i], n), S: s}
		if kind.readsB() {
			op.B = tensor.Vec1D(b[i], n)
		}
		v.tasks[i].Instrs = v.slot[2*i : 2*i+1 : 2*i+1]
	}
	return v.step()
}

// Dot computes the mixed-precision inner product of the n-element
// vectors at arena offsets a[i] and b[i] on every tile i into out[i],
// and returns the phase's cycles.
func (v *VectorPhase) Dot(a, b []int, n int, out []float32) int64 {
	if d, lanes, ok := dotCycles(n, v.m.Cfg.SIMDWidth); ok && v.jumpable() {
		for i, t := range v.m.Tiles {
			out[i] = fp16.DotMixedAcc(0, t.Arena.Slice(a[i], n), t.Arena.Slice(b[i], n))
			v.retire(i, d, lanes)
		}
		return v.jump(d)
	}
	v.build()
	for i, t := range v.m.Tiles {
		v.dots[i] = DotMixed{A: tensor.Vec1D(a[i], n), B: tensor.Vec1D(b[i], n), Arena: t.Arena, Out: &out[i]}
		v.tasks[i].Instrs = v.slot[2*i+1 : 2*i+2 : 2*i+2]
	}
	return v.step()
}

// jumpable reports whether the next phase may run as one loop: the
// machine runs under EngineFastForward, the fabric is quiescent, and on
// every tile the phase task is idle and unblocked on a core with no
// current task, no threads, no other activated unblocked task and no
// words waiting at its ramp. Stepped, such a phase is exactly each core
// issuing its one instruction back to back (all of a tile's cycles issue
// lanes) and the phase ending with the slowest — every tile has the same
// n, so after StaticCycles' d cycles. Every core is a phase core, so a
// core on a worklist has nothing else runnable either: it is waiting for
// the dequeue its next step would perform, which jump performs.
func (v *VectorPhase) jumpable() bool {
	if v.m.engine != EngineFastForward || !v.m.Fab.Quiescent() {
		return false
	}
	for i := range v.tasks {
		t := &v.tasks[i]
		c := t.core
		if t.blocked || t.activated || t.running || c.current != nil || c.nthreads > 0 ||
			c.pick() != nil || !c.RxQuiet() {
			return false
		}
	}
	return true
}

// retire books tile i's jumped instruction as its completion would: d
// busy cycles issuing lanes lanes, the send gate clear (a vector
// instruction sends nothing) and the task's program counter past its one
// instruction.
func (v *VectorPhase) retire(i int, d, lanes int64) {
	c := v.tasks[i].core
	c.busyCycles += d
	c.lanesUsed += lanes
	c.sentThisCycle = false
	v.tasks[i].pc = 1
}

// jump ends a jumped phase of d cycles: it performs the worklist dequeues
// of the phase's first cycle and advances the clock. A router left hot
// by the preceding phase takes exactly one arbitration visit on the
// first cycle and then cools (its queues are empty), so one real fabric
// step reproduces it; the rest of the phase is dead cycles.
func (v *VectorPhase) jump(d int64) int64 {
	m := v.m
	for s, list := range m.runnable {
		for _, c := range list {
			c.queued = false
		}
		m.runnable[s] = list[:0]
	}
	if m.Fab.HotCount() > 0 {
		m.Fab.Step()
		m.Fab.AdvanceIdle(d - 1)
	} else {
		m.Fab.AdvanceIdle(d)
	}
	m.steps += d
	v.jumped++
	return d
}

// build allocates the stepping path's instructions on first use.
func (v *VectorPhase) build() {
	if v.slot != nil {
		return
	}
	n := len(v.tasks)
	v.ops, v.dots, v.slot = make([]MemOp, n), make([]DotMixed, n), make([]Instr, 2*n)
	for i := range v.tasks {
		v.slot[2*i], v.slot[2*i+1] = &v.ops[i], &v.dots[i]
	}
}

// step activates every tile's phase task, armed by the caller, and steps
// the machine until all have completed.
func (v *VectorPhase) step() int64 {
	v.left.Store(int64(len(v.tasks)))
	for i := range v.tasks {
		v.tasks[i].core.Activate(&v.tasks[i])
	}
	cycles, err := v.m.RunUntil(v.finished, 1<<24)
	if err != nil {
		panic(err) // local instructions cannot wedge; a failure is a simulator bug
	}
	v.stepped++
	return cycles
}
