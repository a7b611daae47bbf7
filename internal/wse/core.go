package wse

import (
	"fmt"
	"math/bits"

	"repro/internal/fabric"
	"repro/internal/fp16"
)

// MaxThreads is the number of concurrent execution threads a core
// supports ("The core supports nine concurrent threads of execution").
const MaxThreads = 9

// Task is a schedulable unit of code that reacts to events. Tasks are
// triggered (activated) by other tasks, by FIFO pushes, or by thread
// completions, and may be blocked/unblocked independently. The hardware
// scheduler runs one task at a time per core; Priority tasks are selected
// first ("It is marked as higher priority to avoid a race condition").
type Task struct {
	Name     string
	Priority bool
	// Instrs is the task's body: a sequence of vector instructions
	// executed on the shared datapath.
	Instrs []Instr
	// OnComplete runs control actions (block/unblock/activate) when the
	// body finishes. Control actions are free, as in the hardware.
	//
	// Scheduling contract: OnComplete (and thread onDone) handlers run
	// while their own core is being stepped and must direct scheduling
	// calls (Activate/Block/Unblock/LaunchThread) only at that core —
	// exactly the hardware's reach. Waking a *different* core from a
	// handler would race with the other shard's worklist under the
	// sharded engine; cross-core signalling goes through the fabric.
	OnComplete func(c *Core)

	blocked   bool
	activated bool
	running   bool
	pc        int
	// core is the owning core, set by AddTask; the fast-forward path
	// (ff.go) uses it to reach a task's scheduler state.
	core *Core
}

// thread is a background thread slot running one asynchronous vector
// instruction.
type thread struct {
	instr  Instr
	onDone func(c *Core)
	name   string
}

// threadTable is a core's nine thread slots and the issue list gathered
// from them. It is allocated on the core's first LaunchThread — the
// compute-only cores of a wafer never pay for it — and the slots are
// stored by value, so launching a thread allocates nothing.
type threadTable struct {
	slots [MaxThreads]thread
	// live has bit s set while slots[s] runs an instruction.
	live uint16
	// check has bit s set while slot s's Done must be looked at by the
	// next retire scan that reaches it: the thread was launched since, or
	// its instruction was called this cycle. always is the slots running
	// a FIFOAdd, whose Done is looked at every cycle (see unitKind).
	check, always uint16
	// stale marks that live changed since units was gathered; step
	// regathers at the start of its issue phase, exactly where the
	// every-cycle scan used to read the slots.
	stale bool
	// units[0] is reserved for the running task's current instruction;
	// units[1:1+n] are the live threads' instructions in slot order.
	units [MaxThreads + 1]issueUnit
	n     int
}

// issueUnit is one entry of a core's issue list: an instruction, how
// the issue loop may treat it (see unitKind), the stream buffer it
// drains if it is a stream consumer, and its thread slot (noSlot for
// the running task's instruction).
type issueUnit struct {
	in   Instr
	src  *StreamBuf
	kind unitKind
	slot uint8
}

const noSlot = 15 // a bit of threadTable.check no thread slot uses

// unitKind classifies an instruction for the calls a step may leave
// out. Each elides only what provably changes nothing and returns 0:
//
//   - lane cut-off: once a pass has no lanes left, a lane-consuming
//     instruction offered zero lanes does nothing (MemOp and DotMixed
//     only once their first call has set started/began);
//   - dry stream: a MulToFIFO, StreamAdd or StreamStore whose stream
//     buffer is empty does nothing — the arriving word, not a poll,
//     is what makes it runnable again;
//   - progress gate: in the second pass, a lane-consuming instruction
//     already called this cycle is limited by its stream, FIFO or
//     extent, not by lanes (had it taken all it was offered, no lanes
//     would be left for a second pass), so calling it again can only
//     differ if some unit has moved data since;
//   - retire: the retire scan looks only at threads called this cycle
//     or launched since the last scan, because Done of a MemOp,
//     DotMixed, SendMem, MulToFIFO, StreamAdd or StreamStore changes
//     only inside its own Step. A FIFOAdd thread's Done follows a FIFO
//     anything may pop, so it is looked at every cycle.
//
// Zero-lane instructions (sends) and every type unitOf does not know
// are always called (so their Done is always looked at too), and any
// call of an unknown type counts as progress. A new Instr type is
// therefore correct by default; to be skipped it must be added to
// unitOf and guarantee what the rules above rely on: Step with the same
// operand state returns the same result without side effects, and Done
// reads nothing another unit writes.
type unitKind uint8

// The order matters: kinds up to kindSend never take lanes, kinds from
// kindFIFOAdd on do.
const (
	kindOther   unitKind = iota // unknown type or ScalarSend: always called, always "progress"
	kindSend                    // SendMem: always called, touches nothing a lane-consumer reads
	kindFIFOAdd                 // lane-consuming; Done follows the FIFO, which other units fill
	kindStream                  // MulToFIFO, StreamAdd, StreamStore
	kindMemOp                   // MemOp: skippable once started
	kindDot                     // DotMixed: skippable once began
)

// unitOf classifies in for the issue list.
func unitOf(in Instr, slot uint8) issueUnit {
	u := issueUnit{in: in, slot: slot}
	switch op := in.(type) {
	case *SendMem:
		u.kind = kindSend
	case *FIFOAdd:
		u.kind = kindFIFOAdd
	case *MulToFIFO:
		u.kind, u.src = kindStream, streamOf(op.Src)
	case *StreamAdd:
		u.kind, u.src = kindStream, streamOf(op.Src)
	case *StreamStore:
		u.kind, u.src = kindStream, streamOf(op.Src)
	case *MemOp:
		u.kind = kindMemOp
	case *DotMixed:
		u.kind = kindDot
	}
	return u
}

// idleAtZeroLanes reports whether calling u with no lanes is a no-op.
func (u *issueUnit) idleAtZeroLanes() bool {
	switch u.kind {
	case kindFIFOAdd, kindStream:
		return true
	case kindMemOp:
		return u.in.(*MemOp).started
	case kindDot:
		return u.in.(*DotMixed).began
	}
	return false
}

// rxSub is one subscribed fabric color of a core: the stream buffers it
// feeds and the handle on the tile's receive buffer for it.
type rxSub struct {
	col fabric.Color
	// q is resolved lazily, the first time the color is found pending
	// after a delivery created the buffer (as the fabric resolves its
	// route destinations); nil until then.
	q    *fabric.RxQueue
	bufs []*StreamBuf
}

// Core is the execution engine of one tile.
//
// Scheduling is event-driven: a core sits on its shard's runnable
// worklist only while it has (or may have) runnable work — a task
// activated or unblocked, a thread launched, a current task mid-flight,
// or words pending at the ramp for a subscribed color. It leaves the
// list the first stepped cycle none of those hold and returns via the
// event edges (Activate, Unblock, LaunchThread, Subscribe, rx-delivery
// wake from the fabric). Idle tiles therefore cost nothing per cycle,
// which is what makes the paper's bursty programs — and the full
// 602×595 wafer — cheap to cycle-simulate between communication phases.
// The same edges reach inside a step: the rx-delivery wake marks which
// subscribed color has words (rxPending), and LaunchThread/retire keep
// the issue list, so a stepped core neither probes empty receive
// buffers nor scans empty thread slots.
type Core struct {
	m     *Machine
	tile  *Tile
	shard int // fabric engine shard owning this tile

	tasks   []*Task
	current *Task
	// ready is false only while no task is activated and unblocked: set
	// by the edges that can make one so (AddTask, Activate, Unblock,
	// Restore), cleared by a pick that finds none, so an idle scheduler
	// is not rescanned every cycle.
	ready bool

	thr      *threadTable // nil until the first LaunchThread
	nthreads int

	// rx stream fanout: a fabric color's arriving words are distributed to
	// every subscribed stream buffer; a word is consumed from the fabric
	// receive queue only when all subscribers can accept it (hardware
	// delivers arriving data directly to the functional units consuming
	// the stream). subs lists the subscribed colors in registration
	// order, which is the delivery order within a cycle.
	subs []rxSub
	// subMask is the set of subscribed colors, used by the machine's
	// rx-delivery wake to drop deliveries on colors this core does not
	// consume (other subsystems' traffic to the same ramp); subPos maps
	// a subscribed color to its position in subs.
	subMask uint32
	subPos  [fabric.MaxColors]uint8
	// rxPending has bit i set while subs[i]'s receive buffer may hold
	// words: set by the rx-delivery wake, by Subscribe and by snapshot
	// restore (conservatively — words may already be waiting), cleared
	// on the pop that empties the buffer or on finding it empty (a host
	// Recv may have taken the word). A clear bit proves the buffer
	// empty, so step, runnable, RxQuiet and the batched classifier look
	// only at set bits. Host-side bookkeeping, never architectural state.
	rxPending uint32

	// queued marks membership in the shard worklist (set by wake,
	// cleared by the machine when the core steps without runnable work).
	queued bool

	// ffMark is FastForwardTasks' transient "this core owns one of the
	// phase's tasks" marker, always false outside that call; a field
	// rather than a set so eligibility checks allocate nothing at
	// wafer scale.
	ffMark bool

	sentThisCycle bool

	// Stats. Idle cycles are skipped entirely, so the denominators in
	// Utilization come from the machine cycle counter, not a per-core
	// count — the reported fractions are unchanged from the polling
	// engine, which stepped (and counted) every core every cycle.
	busyCycles int64
	lanesUsed  int64

	// sliceSteps and walkSteps count the MemOp/DotMixed steps that took
	// the contiguous slice path and the descriptor walk. Host-side
	// observation only (not architectural state, not in the fingerprint):
	// tests assert them so a lost fast path fails instead of slowing down.
	sliceSteps, walkSteps int64
}

func newCore(m *Machine, t *Tile) *Core {
	return &Core{m: m, tile: t}
}

// wake puts the core on its shard's runnable worklist. Idempotent and
// cheap; callers wake eagerly on any event that might create runnable
// work and let the next step decide whether the core stays listed.
func (c *Core) wake() {
	if !c.queued {
		c.queued = true
		c.m.runnable[c.shard] = append(c.m.runnable[c.shard], c)
	}
}

// AddTask registers a task with the scheduler. Tasks start deactivated;
// use Activate (or Task.activated via TaskState) to make them runnable.
func (c *Core) AddTask(t *Task) *Task {
	t.core = c
	c.tasks = append(c.tasks, t)
	if t.activated && !t.blocked {
		c.ready = true
		c.wake()
	}
	return t
}

// Activate marks t runnable. An activation received while t runs is
// remembered, so data pushed during execution re-triggers it — the FIFO
// semantics sumtask relies on.
func (c *Core) Activate(t *Task) {
	t.activated = true
	if !t.blocked {
		c.ready = true
		c.wake()
	}
}

// Block prevents t from being scheduled until unblocked.
func (c *Core) Block(t *Task) { t.blocked = true }

// Unblock clears t's blocked state.
func (c *Core) Unblock(t *Task) {
	t.blocked = false
	if t.activated {
		c.ready = true
		c.wake()
	}
}

// LaunchThread starts instr in the given thread slot. It panics if the
// slot is occupied — the programmer owns slot assignment, as in the
// hardware ("a thread resource assigned (.thr = 5)").
func (c *Core) LaunchThread(slot int, name string, instr Instr, onDone func(*Core)) {
	if slot < 0 || slot >= MaxThreads {
		panic(fmt.Sprintf("wse: thread slot %d out of range", slot))
	}
	tt := c.thr
	if tt == nil {
		tt = new(threadTable)
		c.thr = tt
	}
	if tt.live&(1<<slot) != 0 {
		panic(fmt.Sprintf("wse: thread slot %d (%s) already running %s", slot, name, tt.slots[slot].name))
	}
	tt.slots[slot] = thread{instr: instr, onDone: onDone, name: name}
	tt.live |= 1 << slot
	tt.check |= 1 << slot
	tt.stale = true
	c.nthreads++
	c.wake()
}

// Subscribe attaches a stream buffer to a fabric color. All subscribers
// of a color receive every arriving word.
func (c *Core) Subscribe(col fabric.Color, b *StreamBuf) {
	if c.subMask&(1<<col) == 0 {
		c.subMask |= 1 << col
		c.subPos[col] = uint8(len(c.subs))
		c.subs = append(c.subs, rxSub{col: col})
	}
	i := c.subPos[col]
	c.subs[i].bufs = append(c.subs[i].bufs, b)
	// Words may already be waiting at the ramp for this color.
	c.rxPending |= 1 << i
	c.wake()
}

// rxArrived is the rx-delivery edge: a word was committed into the
// receive buffer of subscribed color col.
func (c *Core) rxArrived(col fabric.Color) {
	c.rxPending |= 1 << c.subPos[col]
	c.wake()
}

// rxWaiting returns subs[i]'s receive buffer if it holds words, resolving
// the handle on first use; otherwise it clears the pending bit and
// returns nil. A step passes its tally, which counts every look at a
// buffer that exists as a probe.
func (c *Core) rxWaiting(i int, st *IssueStats) *fabric.RxQueue {
	s := &c.subs[i]
	if s.q == nil {
		s.q = c.m.Fab.RxQueueOf(c.tile.index, s.col)
	}
	if s.q != nil {
		if st != nil {
			st.RxProbes++
		}
		if s.q.Len() > 0 {
			return s.q
		}
	}
	c.rxPending &^= 1 << i
	return nil
}

// accepting reports whether every subscriber of s has room for a word.
func (s *rxSub) accepting() bool {
	for _, b := range s.bufs {
		if b.full() {
			return false
		}
	}
	return true
}

// Send injects one word into the fabric; at most one send per cycle
// crosses the ramp. Returns false if the ramp is busy or backpressured.
func (c *Core) Send(w fabric.Word) bool {
	if c.sentThisCycle {
		return false
	}
	if !c.m.Fab.Send(c.tile.Coord, w) {
		return false
	}
	c.sentThisCycle = true
	return true
}

// runnable reports whether the core has work next cycle: a task
// mid-flight, an activated unblocked task, a live thread, or a
// *deliverable* word pending at the ramp for a subscribed color. The
// machine calls this after stepping to decide worklist membership. An
// rx word all of whose subscribers are full does not count — the only
// thing that frees subscriber space is an instruction on this same
// core consuming the stream, so the core parks (and RunUntil's wedge
// detector can see a stuck program) instead of spinning; the next
// Launch/Activate/Unblock or rx delivery re-lists it.
func (c *Core) runnable() bool {
	return c.current != nil || c.nthreads > 0 || c.runnableSlow()
}

// runnableSlow is the task/rx half of the runnable check; the cheap
// half above inlines into the stepping hot path.
func (c *Core) runnableSlow() bool {
	if c.pick() != nil {
		return true
	}
	for pend := c.rxPending; pend != 0; pend &= pend - 1 {
		i := bits.TrailingZeros32(pend)
		if c.rxWaiting(i, nil) != nil && c.subs[i].accepting() {
			return true
		}
	}
	return false
}

// Utilization returns the fraction of cycles with any datapath issue
// and the mean lanes used per cycle, over the machine's stepped
// lifetime. The denominator is the count of Machine.Step calls — not
// the fabric cycle counter, which host kernels that drive the fabric
// directly advance without giving cores a cycle.
func (c *Core) Utilization() (busyFrac, lanesPerCycle float64) {
	cycles := c.m.steps
	if cycles == 0 {
		return 0, 0
	}
	return float64(c.busyCycles) / float64(cycles),
		float64(c.lanesUsed) / float64(cycles)
}

// step runs one cycle of the core. Only runnable cores are stepped; an
// un-stepped cycle is architecturally identical to stepping an idle
// core (nothing to deliver, no task to pick, no unit to issue).
func (c *Core) step() {
	c.sentThisCycle = false
	st := &c.m.issue[c.shard].IssueStats
	st.CoreSteps++

	// 1. Distribute arriving fabric words to stream subscribers: one word
	// per color per cycle, in registration order, only if every subscriber
	// has space. Only colors marked pending are looked at.
	for pend := c.rxPending; pend != 0; pend &= pend - 1 {
		i := bits.TrailingZeros32(pend)
		q := c.rxWaiting(i, st)
		if q == nil {
			continue
		}
		s := &c.subs[i]
		if !s.accepting() {
			st.RxStalls++
			continue
		}
		w := fabric.Word{Color: s.col, Bits: q.Pop()}
		st.RxWords++
		if q.Len() == 0 {
			c.rxPending &^= 1 << i
		}
		lo, hi := w.UnpackF16()
		for _, b := range s.bufs {
			b.push(lo, hi)
		}
	}

	// 2. Pick a task if none is running.
	if c.current == nil {
		c.current = c.pick()
		if c.current != nil {
			c.current.running = true
			c.current.activated = false
			c.current.pc = 0
		}
	}
	cur := c.currentInstr()

	// 3. Share datapath lanes round-robin among the running task's current
	// instruction and all threads.
	var (
		units []issueUnit
		solo  [1]issueUnit
	)
	if tt := c.thr; tt != nil {
		if tt.stale {
			tt.gather()
		}
		units = tt.units[1 : 1+tt.n]
		if cur != nil {
			tt.units[0] = unitOf(cur, noSlot)
			units = tt.units[:1+tt.n]
		}
	} else if cur != nil {
		solo[0] = unitOf(cur, noSlot)
		units = solo[:]
	}
	if len(units) > 0 {
		called := c.issue(units, st)
		if c.thr != nil {
			c.thr.check |= called
		}
	}

	// 4. Retire completed work.
	if c.current != nil {
		t := c.current
		for t.pc < len(t.Instrs) && t.Instrs[t.pc].Done() {
			t.pc++
		}
		if t.pc >= len(t.Instrs) {
			t.running = false
			c.current = nil
			if t.OnComplete != nil {
				t.OnComplete(c)
			}
		}
	}
	if c.nthreads > 0 {
		tt := c.thr
		for rest := tt.live & (tt.check | tt.always); rest != 0; {
			s := bits.TrailingZeros16(rest)
			tt.check &^= 1 << s
			if th := &tt.slots[s]; th.instr.Done() {
				onDone := th.onDone
				*th = thread{}
				tt.live &^= 1 << s
				tt.always &^= 1 << s
				tt.stale = true
				c.nthreads--
				if onDone != nil {
					onDone(c)
				}
			}
			// A handler may have launched threads: like a walk over the
			// slots themselves, go on with whatever is live above s.
			rest = tt.live & (tt.check | tt.always) &^ (1<<(s+1) - 1)
		}
	}
}

// currentInstr returns the running task's current instruction, or nil.
func (c *Core) currentInstr() Instr {
	if t := c.current; t != nil && t.pc < len(t.Instrs) {
		return t.Instrs[t.pc]
	}
	return nil
}

// gather rebuilds the thread part of the issue list from the live slots.
func (tt *threadTable) gather() {
	tt.n, tt.always = 0, 0
	for rest := tt.live; rest != 0; rest &= rest - 1 {
		s := bits.TrailingZeros16(rest)
		u := unitOf(tt.slots[s].instr, uint8(s))
		if u.kind == kindFIFOAdd {
			tt.always |= 1 << s
		}
		tt.n++
		tt.units[tt.n] = u
	}
	tt.stale = false
}

// issue is the datapath half of a step: up to two passes over the units,
// the second handing out the lanes the first left over. Zero-lane
// instructions (sends) progress even when the datapath is saturated.
// See unitKind for the calls the two passes leave out. It returns the
// slots (as threadTable.check bits) of the units it called.
func (c *Core) issue(units []issueUnit, st *IssueStats) (called uint16) {
	lanes := c.m.Cfg.SIMDWidth
	used := 0
	// progress counts the calls so far this cycle that may have changed
	// what another unit would see; seen[i] is its value after unit i's
	// latest call.
	var (
		progress uint8
		seen     [MaxThreads + 1]uint8
	)
	for pass := 0; pass < 2; pass++ {
		for i := range units {
			u := &units[i]
			give := max(lanes, 0)
			if u.kind >= kindFIFOAdd {
				switch {
				case u.src != nil && u.src.size == 0:
					continue
				case give == 0:
					if u.idleAtZeroLanes() {
						continue
					}
				case pass == 1 && seen[i] == progress:
					continue // called in the first pass (it was neither dry nor out of lanes), nothing moved since
				}
			}
			n := u.in.Step(c, give)
			called |= 1 << u.slot
			st.InstrCalls++
			if n == 0 {
				st.IdleCalls++
			}
			if u.kind <= kindSend {
				st.ZeroLaneCalls++
			}
			if n > 0 || u.kind == kindOther {
				progress++
			}
			seen[i] = progress
			lanes -= n
			used += n
		}
		if lanes <= 0 {
			break
		}
	}
	if used > 0 {
		c.busyCycles++
		c.lanesUsed += int64(used)
	}
	return called
}

// pick selects the next task: priority tasks first, then registration
// order.
func (c *Core) pick() *Task {
	if !c.ready {
		return nil
	}
	var fallback *Task
	for _, t := range c.tasks {
		if !t.activated || t.blocked {
			continue
		}
		if t.Priority {
			return t
		}
		if fallback == nil {
			fallback = t
		}
	}
	c.ready = fallback != nil
	return fallback
}

// StreamBuf is a small elementwise buffer between the ramp and a consuming
// instruction: arriving words are unpacked into fp16 elements here. Its
// depth (in elements) bounds how far the fabric can run ahead of the
// datapath.
type StreamBuf struct {
	buf        []fp16.Float16
	head, size int
	// small backs buf for the usual shallow buffer, so that building one
	// is a single allocation (every tile of a stencil program has several).
	small [8]fp16.Float16
}

// NewStreamBuf returns a buffer with capacity for depth words (2·depth
// elements).
func NewStreamBuf(depthWords int) *StreamBuf {
	b := new(StreamBuf)
	if n := 2 * depthWords; n <= len(b.small) {
		b.buf = b.small[:n:n]
	} else {
		b.buf = make([]fp16.Float16, n)
	}
	return b
}

func (b *StreamBuf) full() bool { return len(b.buf)-b.size < 2 }

// Len returns the buffered element count.
func (b *StreamBuf) Len() int { return b.size }

// push and pop wrap by compare, not modulo: they run once per streamed
// element.
func (b *StreamBuf) push(lo, hi fp16.Float16) {
	i := b.head + b.size
	if i >= len(b.buf) {
		i -= len(b.buf)
	}
	b.buf[i] = lo
	if i++; i == len(b.buf) {
		i = 0
	}
	b.buf[i] = hi
	b.size += 2
}

func (b *StreamBuf) pop() fp16.Float16 {
	v := b.buf[b.head]
	if b.head++; b.head == len(b.buf) {
		b.head = 0
	}
	b.size--
	return v
}
