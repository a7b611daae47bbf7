package wse

import (
	"math/bits"

	"repro/internal/fabric"
)

// This file is the fast-forward engine's (EngineFastForward) surface:
// the static timing of an arena-local vector instruction (StaticCycles,
// whose rule VectorPhase jumps by), the one precondition every jump
// shares (Settled), the setters that land a jumped phase in the machine
// and the record of phases jumped and stepped (CountPhase, Phases). A
// jumped phase's memory is bit-identical because its elements pass
// through the same element kernels in the same order; its cycles and
// fingerprint are, because it starts only from a Settled machine that
// passes the jump's own shape checks, whose evolution stepping cannot
// tell apart from the jump. difftest.FuzzJumpMatchesStep holds every
// jump to stepping from hostile starting states.

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

// Phase names a kind of phase the fast-forward engine can jump.
type Phase uint8

// The jumpable phase kinds.
const (
	PhaseVector    Phase = iota // a VectorPhase Apply or Dot
	PhaseRow                    // kernels.AllReduce's row phase
	PhaseBroadcast              // kernels.AllReduce's broadcast
	PhaseExchange               // one stencilc.Program3D application
	numPhases
)

// PhaseCount is how many phases of one kind a machine ran as one jump
// and how many it cycle-simulated.
type PhaseCount struct{ Jumped, Stepped int }

// CountPhase records one phase of kind k, jumped or stepped — each
// kind's owner in one place — so a silent fall-back shows in Phases.
func (m *Machine) CountPhase(k Phase, jumped bool) {
	if jumped {
		m.phases[k].Jumped++
	} else {
		m.phases[k].Stepped++
	}
}

// Phases reports how the machine has run the phases of kind k.
func (m *Machine) Phases(k Phase) PhaseCount { return m.phases[k] }

// Settled reports whether nothing can move on the machine but the phase
// a fast-forward path is about to jump — the precondition every jump
// shares, evaluated once per phase in O(tiles): the engine is
// EngineFastForward; every router queue is empty; no core has a current
// task, a live thread, a task it could pick, a word waiting on a
// subscribed color or an element in a subscribed stream buffer; and no
// receive buffer holds a word of colors (the phase's own, which no core
// subscribes to). A core may still be listed on its worklist with
// nothing to run; FastForwardSteps performs the dequeue its next step
// would.
func (m *Machine) Settled(colors ...fabric.Color) bool {
	if m.engine != EngineFastForward || !m.Fab.Quiescent() {
		return false
	}
	for _, t := range m.Tiles {
		c := t.Core
		if c.current != nil || c.nthreads > 0 || c.pick() != nil || !c.rxQuiet() {
			return false
		}
		for i := 0; c.streamed && i < len(c.subs); i++ {
			for _, b := range c.subs[i].bufs {
				if b.size > 0 {
					return false
				}
			}
		}
		c.streamed = false
		for _, col := range colors {
			if m.Fab.RxLen(t.Coord, col) > 0 {
				return false
			}
		}
	}
	return true
}

// rxQuiet reports whether none of the core's subscribed colors has
// undelivered words waiting in its fabric receive buffer.
func (c *Core) rxQuiet() bool {
	// A set pending bit is only a maybe (Subscribe and Restore set it
	// without looking); rxWaiting settles it and clears the stale ones.
	for pend := c.rxPending; pend != 0; pend &= pend - 1 {
		if c.rxWaiting(bits.TrailingZeros32(pend), nil).Valid() {
			return false
		}
	}
	return true
}

// The setters below land a jumped phase in a machine it started
// Settled on; each writes only states a cycle simulation reaches.

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

// FastForwardSteps advances the machine's step counter by a jumped
// phase's n cycles and empties the core worklists: a core listed at the
// Settled start had nothing to run, so its next step would only have
// dequeued it. The fabric side advances separately (fabric.ApplyReplay
// or AdvanceIdle).
func (m *Machine) FastForwardSteps(n int64) {
	if n < 0 {
		panic("wse: FastForwardSteps of negative cycles")
	}
	for s, list := range m.runnable {
		for _, c := range list {
			c.queued = false
		}
		m.runnable[s] = list[:0]
	}
	m.steps += n
}
