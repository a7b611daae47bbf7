package wse

import (
	"fmt"

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

// Thread is a background thread slot running one asynchronous vector
// instruction.
type thread struct {
	instr  Instr
	onDone func(c *Core)
	name   string
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
type Core struct {
	m     *Machine
	tile  *Tile
	shard int // fabric engine shard owning this tile

	tasks   []*Task
	current *Task

	threads  [MaxThreads]*thread
	nthreads int

	// rx stream fanout: a fabric color's arriving words are distributed to
	// every subscribed stream buffer; a word is consumed from the fabric
	// receive queue only when all subscribers can accept it (hardware
	// delivers arriving data directly to the functional units consuming
	// the stream). The table is a dense color-indexed array — allocated
	// lazily so the 358k mostly-unsubscribed cores of a wafer stay small —
	// walked via subColors, the active-color list in registration order.
	// (The pre-worklist engine ranged over a map here, which was only
	// deterministic because no buffer subscribes to two colors; the dense
	// array is deterministic by construction, and branch-lean.)
	subs      *[fabric.MaxColors][]*StreamBuf
	subColors []fabric.Color
	// subMask is the bitmask form of subColors, used by the machine's
	// rx-delivery wake to drop deliveries on colors this core does not
	// consume (other subsystems' traffic to the same ramp).
	subMask uint32

	// scratch is the persistent datapath-unit list reused by step, so
	// the hot path allocates nothing per cycle.
	scratch []Instr

	// queued marks membership in the shard worklist (set by wake,
	// cleared by the machine when the core steps without runnable work).
	queued bool

	// ffMark is FastForwardTasks' transient "this core owns one of the
	// phase's tasks" marker, always false outside that call; a field
	// rather than a set so eligibility checks allocate nothing at
	// wafer scale.
	ffMark bool

	sentThisCycle bool

	// rxArmed marks that words may be pending at the ramp for a
	// subscribed color: set on every rx delivery (and conservatively at
	// construction, subscription and snapshot restore), cleared by the
	// batched engine once a full scan finds every subscribed receive
	// queue empty. It lets the classifier skip the per-color RxLen scan
	// in steady-state compute phases; purely a host-side cache, never
	// part of architectural state.
	rxArmed bool

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
	return &Core{m: m, tile: t, rxArmed: true}
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
		c.wake()
	}
}

// Block prevents t from being scheduled until unblocked.
func (c *Core) Block(t *Task) { t.blocked = true }

// Unblock clears t's blocked state.
func (c *Core) Unblock(t *Task) {
	t.blocked = false
	if t.activated {
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
	if c.threads[slot] != nil {
		panic(fmt.Sprintf("wse: thread slot %d (%s) already running %s", slot, name, c.threads[slot].name))
	}
	c.threads[slot] = &thread{instr: instr, onDone: onDone, name: name}
	c.nthreads++
	c.wake()
}

// Subscribe attaches a stream buffer to a fabric color. All subscribers
// of a color receive every arriving word.
func (c *Core) Subscribe(col fabric.Color, b *StreamBuf) {
	if c.subs == nil {
		c.subs = new([fabric.MaxColors][]*StreamBuf)
	}
	if len(c.subs[col]) == 0 {
		c.subColors = append(c.subColors, col)
		c.subMask |= 1 << col
	}
	c.subs[col] = append(c.subs[col], b)
	// Words may already be waiting at the ramp for this color.
	c.rxArmed = true
	c.wake()
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
	for _, t := range c.tasks {
		if t.activated && !t.blocked {
			return true
		}
	}
	for _, col := range c.subColors {
		if c.m.Fab.RxLen(c.tile.Coord, col) == 0 {
			continue
		}
		deliverable := true
		for _, b := range c.subs[col] {
			if b.full() {
				deliverable = false
				break
			}
		}
		if deliverable {
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

	// 1. Distribute arriving fabric words to stream subscribers: one word
	// per color per cycle, only if every subscriber has space.
	for _, col := range c.subColors {
		bufs := c.subs[col]
		ok := true
		for _, b := range bufs {
			if b.full() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if w, got := c.m.Fab.Recv(c.tile.Coord, col); got {
			lo, hi := w.UnpackF16()
			for _, b := range bufs {
				b.push(lo, hi)
			}
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

	// 3. Share datapath lanes round-robin among the running task's current
	// instruction and all threads.
	lanes := c.m.Cfg.SIMDWidth
	if c.scratch == nil {
		c.scratch = make([]Instr, 0, MaxThreads+1)
	}
	units := c.scratch[:0]
	if c.current != nil && c.current.pc < len(c.current.Instrs) {
		units = append(units, c.current.Instrs[c.current.pc])
	}
	if c.nthreads > 0 {
		// &c.threads: ranging the array by value would copy all nine
		// slots every cycle.
		for _, th := range &c.threads {
			if th != nil {
				units = append(units, th.instr)
			}
		}
	}
	used := 0
	for pass := 0; pass < 2 && len(units) > 0; pass++ {
		// Zero-lane instructions (sends) still progress when the datapath
		// is saturated; a second pass lets units take leftover lanes.
		for _, u := range units {
			give := lanes
			if give < 0 {
				give = 0
			}
			n := u.Step(c, give)
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
		for i, th := range &c.threads {
			if th != nil && th.instr.Done() {
				c.threads[i] = nil
				c.nthreads--
				if th.onDone != nil {
					th.onDone(c)
				}
			}
		}
	}
}

// pick selects the next task: priority tasks first, then registration
// order.
func (c *Core) pick() *Task {
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
	return fallback
}

// StreamBuf is a small elementwise buffer between the ramp and a consuming
// instruction: arriving words are unpacked into fp16 elements here. Its
// depth (in elements) bounds how far the fabric can run ahead of the
// datapath.
type StreamBuf struct {
	buf        []fp16.Float16
	head, size int
}

// NewStreamBuf returns a buffer with capacity for depth words (2·depth
// elements).
func NewStreamBuf(depthWords int) *StreamBuf {
	return &StreamBuf{buf: make([]fp16.Float16, 2*depthWords)}
}

func (b *StreamBuf) full() bool { return len(b.buf)-b.size < 2 }

// Len returns the buffered element count.
func (b *StreamBuf) Len() int { return b.size }

func (b *StreamBuf) push(lo, hi fp16.Float16) {
	b.buf[(b.head+b.size)%len(b.buf)] = lo
	b.size++
	b.buf[(b.head+b.size)%len(b.buf)] = hi
	b.size++
}

func (b *StreamBuf) pop() fp16.Float16 {
	v := b.buf[b.head]
	b.head = (b.head + 1) % len(b.buf)
	b.size--
	return v
}
