package wse

import (
	"math/bits"
	"runtime"
	"sync"
)

// This file holds the rules and the state transitions the fast-forward
// engine (EngineFastForward) writes a phase's outcome through instead of
// cycle-simulating it: the static timing of an arena-local vector
// instruction (StaticCycles, whose rule VectorPhase jumps the solver's
// dot and update phases by) and the narrow setters an exact phase replay
// needs (stencilc.Program3D's exchange replay). The memory result of a
// fast-forwarded phase is bit-identical because the elements pass
// through the same element kernels in the same order with the same
// roundings; its cycle and fingerprint result is identical because the
// eligibility checks reject any machine state whose evolution a cycle
// simulation could distinguish.

// StaticCycles reports whether in, not yet started, has a statically
// predictable execution time on a core running it alone with the given
// SIMD width, and if so how many cycles it occupies the datapath and
// how many lane-issues it accumulates. Only arena-local vector
// instructions qualify: anything touching the fabric or a FIFO has
// data-dependent timing.
func StaticCycles(in Instr, simd int) (cycles, lanes int64, ok bool) {
	switch op := in.(type) {
	case *MemOp:
		if op.started || op.Dst.Advanced() != 0 {
			return 0, 0, false
		}
		return memOpCycles(op.Dst.Len(), simd)
	case *DotMixed:
		if op.began || op.A.Advanced() != 0 {
			return 0, 0, false
		}
		return dotCycles(op.A.Len(), simd)
	}
	return 0, 0, false
}

// memOpCycles is StaticCycles' rule for an n-element MemOp: one lane per
// element, ⌈n/SIMD⌉ cycles.
func memOpCycles(n, simd int) (cycles, lanes int64, ok bool) {
	if n == 0 || simd < 1 {
		return 0, 0, false
	}
	return int64((n + simd - 1) / simd), int64(n), true
}

// dotCycles is StaticCycles' rule for an n-element DotMixed: two lanes
// per mixed-precision FMAC element.
func dotCycles(n, simd int) (cycles, lanes int64, ok bool) {
	e := simd / 2
	if n == 0 || e < 1 {
		return 0, 0, false
	}
	return int64((n + e - 1) / e), int64(2 * n), true
}

// The methods below are the fast-forward application surface: the
// narrow set of state transitions an exact phase replay (the perfmodel
// exchange replay driven by stencilc.Program3D) needs to write its
// outcome back into the machine. Each one expresses only states a
// cycle simulation reaches; the engine-equivalence tests pin the
// callers bit-for-bit against real stepping. Nothing else should call
// them.

// RxQuiet reports whether none of the core's subscribed colors has
// undelivered words waiting in its fabric receive buffer — a core with
// pending deliveries still has architecturally visible work to do, so
// no fast-forward path may skip it.
func (c *Core) RxQuiet() bool {
	// A set pending bit is only a maybe (Subscribe and Restore set it
	// without looking); rxWaiting settles it and clears the stale ones.
	for pend := c.rxPending; pend != 0; pend &= pend - 1 {
		if c.rxWaiting(bits.TrailingZeros32(pend), nil).Valid() {
			return false
		}
	}
	return true
}

// FastForwardComplete marks t as a finished cycle simulation would
// leave it: deactivated, not running, program counter at pc — the
// instruction count of the program the phase would have armed.
// (Fast-forward paths skip the arming, so t.Instrs may be stale or
// nil; the pc is what the scheduler state, and thus the machine
// fingerprint, carries.)
func (t *Task) FastForwardComplete(pc int) {
	t.activated = false
	t.running = false
	t.pc = pc
}

// FastForwardAccount adds a replayed phase's datapath tallies to the
// core and clears its send gate (a completed phase's final cycle never
// leaves a send pending).
func (c *Core) FastForwardAccount(busy, lanes int64) {
	c.busyCycles += busy
	c.lanesUsed += lanes
	c.sentThisCycle = false
}

// FastForwardSteps advances the machine's step counter by a replayed
// phase's cycle count. The fabric side advances separately
// (fabric.ApplyReplay or AdvanceIdle); this is the core-scheduler
// side, valid only once every core is idle — a replayed phase ends
// with nothing runnable, and stepping an idle machine only counts
// cycles.
func (m *Machine) FastForwardSteps(n int64) {
	if n < 0 {
		panic("wse: FastForwardSteps of negative cycles")
	}
	if m.anyRunnable() {
		panic("wse: FastForwardSteps with runnable cores")
	}
	m.steps += n
}

// Overlap runs bg on the machine's host helper goroutine while fg runs
// on the calling goroutine, and returns once both have finished. A
// fast-forwarded phase splits into two independent accounts — its
// counters and its memory (stencilc.Program3D runs its exchange replay
// beside the halo copies and compute loops) — and this lets a two-core
// host compute them at once. bg and fg must touch disjoint state. After
// Close both run inline, bg first. Must not race Close.
func (m *Machine) Overlap(bg, fg func()) {
	if m.closed {
		bg()
		fg()
		return
	}
	h := m.helper
	if h == nil {
		h = newHelper()
		m.helper = h
		runtime.AddCleanup(m, func(h *helper) { h.close() }, h)
	}
	h.job <- bg
	fg()
	<-h.done
}

// helper is one persistent goroutine parked between Overlap calls, with
// fabric's worker-pool lifecycle: Machine.Close stops it, a runtime
// cleanup registered when Overlap starts it stops it once the machine
// is unreachable, and it never pins the machine — the goroutine holds
// only the helper, and a job reaches it through the channel and is
// dead once run, so nothing reachable from a parked helper references
// the machine.
type helper struct {
	job    chan func()
	done   chan struct{} // one send per job run
	exited chan struct{} // closed when the goroutine returns
	once   sync.Once
}

func newHelper() *helper {
	h := &helper{job: make(chan func(), 1), done: make(chan struct{}, 1), exited: make(chan struct{})}
	go h.work()
	return h
}

func (h *helper) work() {
	defer close(h.exited)
	for job := range h.job {
		job()
		h.done <- struct{}{}
	}
}

// close stops the goroutine and returns once it has exited. Idempotent.
func (h *helper) close() {
	h.once.Do(func() {
		close(h.job)
		<-h.exited
	})
}
