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
// can happen (see jumps), a phase is one loop over the tiles: the
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
	// OnComplete — concurrently on a sharded fabric.
	left     atomic.Int64
	finished func() bool

	// ops, dots and slot are the stepping path's per-tile instructions,
	// built by the first stepped phase, so a machine that only jumps has
	// none: slot[2i] = &ops[i], slot[2i+1] = &dots[i].
	ops  []MemOp
	dots []DotMixed
	slot []Instr
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

// Apply runs dst = kind(s, dst, a, b) over n elements on every tile,
// tile i's operands at arena offsets dst[i], a[i] and b[i] (b nil for
// the kinds that do not read it), and returns the phase's cycles.
func (v *VectorPhase) Apply(kind MemOpKind, s fp16.Float16, dst, a, b []int, n int) int64 {
	if d, lanes, ok := memOpCycles(n, v.m.Cfg.SIMDWidth); v.jumps(ok) {
		for i, t := range v.m.Tiles {
			var bs []fp16.Float16
			if kind.readsB() {
				bs = t.Arena.Slice(b[i], n)
			}
			kind.Apply(s, t.Arena.Slice(dst[i], n), t.Arena.Slice(a[i], n), bs)
			t.Core.FastForwardAccount(d, lanes)
			v.tasks[i].FastForwardComplete(1)
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
	if d, lanes, ok := dotCycles(n, v.m.Cfg.SIMDWidth); v.jumps(ok) {
		for i, t := range v.m.Tiles {
			out[i] = fp16.DotMixedAcc(0, t.Arena.Slice(a[i], n), t.Arena.Slice(b[i], n))
			t.Core.FastForwardAccount(d, lanes)
			v.tasks[i].FastForwardComplete(1)
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

// jumps reports, and records, whether the next phase runs as one loop:
// its StaticCycles rule applies (static) and the machine is Settled —
// so no phase task is running or activated, and none can be blocked:
// only VectorPhase holds them. Stepped, such a phase is exactly each
// core issuing its one instruction back to back (all of a tile's cycles
// issue lanes) and the phase ending with the slowest — every tile has
// the same n, so after StaticCycles' d cycles.
func (v *VectorPhase) jumps(static bool) bool {
	ok := static && v.m.Settled()
	v.m.CountPhase(PhaseVector, ok)
	return ok
}

// jump ends a jumped phase of d cycles. A router left hot by the
// preceding phase takes exactly one arbitration visit on the first
// cycle and then cools (its queues are empty), so one real fabric step
// reproduces it; the rest of the phase is dead cycles.
func (v *VectorPhase) jump(d int64) int64 {
	m := v.m
	if m.Fab.HotCount() > 0 {
		m.Fab.Step()
		m.Fab.AdvanceIdle(d - 1)
	} else {
		m.Fab.AdvanceIdle(d)
	}
	m.FastForwardSteps(d)
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
	return cycles
}
