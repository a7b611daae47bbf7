package wse

import (
	"fmt"
	"math/bits"
)

// This file is the task half of the hybrid fast-forward engine
// (EngineFastForward): when a phase consists purely of per-core
// statically-timed compute tasks — no fabric traffic, no threads, no
// inter-core dependence — its duration is exactly predictable
// (Σ ceil(nᵢ/SIMD) per task, max over tasks), so the machine can run
// every instruction's element loop to completion in one call, account
// the counters analytically, and jump the cycle counter, instead of
// cycle-stepping hundreds of thousands of cores through thousands of
// cycles. The memory result is bit-identical because the elements pass
// through the very same Instr.Step loops in the same order with the
// same roundings; the cycle/fingerprint result is identical because
// the eligibility checks reject any machine state whose evolution a
// cycle simulation could distinguish. The stencil-exchange half of the
// hybrid lives in stencilc.Program3D's fast-forward path, which replays
// the perfmodel's exactly-pinned phase model against the live fabric.

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
		n := op.Dst.Len()
		if n == 0 || simd < 1 {
			return 0, 0, false
		}
		return int64((n + simd - 1) / simd), int64(n), true
	case *DotMixed:
		e := simd / 2 // two lanes per mixed-precision FMAC element
		if op.began || op.A.Advanced() != 0 || e < 1 {
			return 0, 0, false
		}
		n := op.A.Len()
		if n == 0 {
			return 0, 0, false
		}
		return int64((n + e - 1) / e), int64(2 * n), true
	}
	return 0, 0, false
}

// FastForwardTasks advances the machine past a phase consisting of the
// given activated tasks, one per core, returning the cycles skipped.
// It returns (0, false) — and the caller must fall back to ordinary
// stepping — unless it can prove the phase cycle-exact in fast-forward:
//
//   - the machine runs under EngineFastForward and the fabric is
//     quiescent (no words in router queues);
//   - every task is activated and unblocked on an otherwise idle core
//     (no current task, no threads, no pending rx words) and is the
//     core's pick;
//   - every instruction of every task is statically timed
//     (StaticCycles);
//   - every other core on a runnable worklist has no runnable work —
//     it is there only for a pending dequeue, which fast-forward
//     performs just as a real step would.
//
// Under those conditions the phase's machine evolution is exactly:
// each task core busy for its own d_t = Σ ceil(nᵢ/SIMD) cycles, the
// phase over after d = max d_t, any leftover hot router taking a
// single arbitration visit on the first cycle, and nothing else. Task
// OnComplete handlers run as usual but must leave their core idle
// (record-only handlers — the kernels' phase-done flags); a handler
// that schedules more work panics, because fast-forward has already
// committed to the phase ending.
func (m *Machine) FastForwardTasks(tasks []*Task) (int64, bool) {
	if m.engine != EngineFastForward || len(tasks) == 0 || !m.Fab.Quiescent() {
		return 0, false
	}
	var dmax int64
	ok := true
	marked := 0
	for _, t := range tasks {
		c := t.core
		if c == nil || c.ffMark || c.current != nil || c.nthreads > 0 ||
			!t.activated || t.blocked || c.pick() != t {
			ok = false
			break
		}
		if !c.RxQuiet() {
			ok = false
			break
		}
		var d int64
		for _, in := range t.Instrs {
			cy, _, o := StaticCycles(in, m.Cfg.SIMDWidth)
			if !o {
				ok = false
				break
			}
			d += cy
		}
		if !ok || d == 0 {
			ok = false
			break
		}
		c.ffMark = true
		marked++
		if d > dmax {
			dmax = d
		}
	}
	if ok {
	sweep:
		for _, list := range m.runnable {
			for _, c := range list {
				if c.ffMark {
					continue
				}
				// A queued core with nothing runnable is waiting for the
				// dequeue its next step would perform; clearing the send
				// gate first is exactly what that step would do, so this
				// mutation is safe even if we end up falling back.
				c.sentThisCycle = false
				if c.runnable() {
					ok = false
					break sweep
				}
			}
		}
	}
	if !ok {
		for _, t := range tasks {
			if marked == 0 {
				break
			}
			if c := t.core; c != nil && c.ffMark {
				c.ffMark = false
				marked--
			}
		}
		return 0, false
	}

	for _, t := range tasks {
		c := t.core
		c.ffMark = false
		c.sentThisCycle = false
		// Emulate pick, run each instruction's element loop to
		// completion, and retire — the compressed image of d_t scalar
		// cycles, every one of which issues lanes (instruction i+1
		// starts the cycle after i retires, with no idle gap).
		c.current = t
		t.running = true
		t.activated = false
		var cycles, lanes int64
		for pc, in := range t.Instrs {
			t.pc = pc
			cy, ln, _ := StaticCycles(in, m.Cfg.SIMDWidth)
			in.Step(c, 1<<30)
			if !in.Done() {
				panic(fmt.Sprintf("wse: fast-forwarded instruction %d of task %q did not complete", pc, t.Name))
			}
			cycles += cy
			lanes += ln
		}
		t.pc = len(t.Instrs)
		t.running = false
		c.current = nil
		c.busyCycles += cycles
		c.lanesUsed += lanes
		if t.OnComplete != nil {
			t.OnComplete(c)
		}
		if c.runnable() {
			panic(fmt.Sprintf("wse: fast-forwarded task %q left its core runnable (OnComplete must be record-only)", t.Name))
		}
	}

	// Every listed core is now provably idle; perform the dequeues the
	// phase's first simulated cycle would have.
	for s, list := range m.runnable {
		for _, c := range list {
			c.queued = false
		}
		m.runnable[s] = list[:0]
	}

	// Jump the clock. A router left hot by the preceding phase takes
	// exactly one arbitration visit (one rr increment) on the first
	// cycle and then cools — its queues are empty — so one real fabric
	// step reproduces it; the rest of the phase is dead cycles.
	d := dmax
	if m.Fab.HotCount() > 0 {
		m.Fab.Step()
		m.Fab.AdvanceIdle(d - 1)
	} else {
		m.Fab.AdvanceIdle(d)
	}
	m.steps += d
	return d, true
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
		if c.rxWaiting(bits.TrailingZeros32(pend), nil) != nil {
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
