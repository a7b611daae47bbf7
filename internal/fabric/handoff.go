package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// handoff shares the tasks of one job — the shards of a claim, commit
// or core step, or the two halves of a RunPair — with helper
// goroutines, help-first: run publishes the job and claims and runs
// tasks itself until none are left, so it waits only for tasks a
// running helper already claimed, never for a helper that has not
// started. An idle helper spins with runtime.Gosched for a short while,
// then parks until a later run wakes it, which run does not wait for.
//
// A helper claims only while the process-wide count of stepping
// goroutines (stepping: callers inside run, admitted helpers) is at
// most limit (procs); a refused one parks, and run wakes a parked
// one only while there is room. So two machines stepped from two
// goroutines on two Ps step one shard after another each, while one
// alone gets both Ps. Helpers reference only the handoff and run clears
// its job, so they never pin the fabric: Close, or a runtime cleanup
// once it is unreachable, stops them.
type handoff struct {
	// ticket packs the job's generation (high 32 bits) and the bounds
	// [lo, hi) of its unclaimed tasks (16 bits each); see claim.
	ticket atomic.Uint64
	job    atomic.Pointer[func(task int)]
	done   atomic.Int32 // tasks of the current generation finished
	gen    uint64       // the caller's last published generation

	limit  int
	parked atomic.Int32  // helpers blocked in work's select
	wake   chan struct{} // one token per helper at most
	quit   chan struct{}
	once   sync.Once
	exited sync.WaitGroup
}

// An idle helper looks for a job spinLoads times between two Gosched
// calls (each takes the scheduler's lock), for helperSpins calls — a
// stepped cycle's phase gap, far shorter than a host-side phase.
const (
	helperSpins = 256
	spinLoads   = 64
)

func newHandoff(helpers, limit int) *handoff {
	h := &handoff{limit: limit, wake: make(chan struct{}, helpers), quit: make(chan struct{})}
	h.exited.Add(helpers)
	for range helpers {
		go h.work()
	}
	return h
}

// run executes (*job)(i) exactly once for every task i in [0, n) and
// returns when all have finished. Must not run concurrently with
// itself or close.
func (h *handoff) run(job *func(task int), n int) {
	busy := stepping.Add(1)
	defer stepping.Add(-1) // also when a task panics: the slot must not leak
	h.gen++
	h.done.Store(0)
	h.job.Store(job)
	h.ticket.Store(h.gen<<32 | uint64(n))
	if h.parked.Load() > 0 && busy < int32(h.limit) {
		select {
		case h.wake <- struct{}{}: // one helper; the next run may wake another
		default:
		}
	}
	mine := int32(0)
	for _, i, ok := h.claim(false); ok; _, i, ok = h.claim(false) {
		(*job)(i)
		mine++
	}
	h.done.Add(mine)
	for k := 1; h.done.Load() < int32(n); k++ {
		if k%spinLoads == 0 {
			runtime.Gosched() // a helper preempted mid-task may finish here
		}
	}
	h.job.Store(nil)
}

// claim takes an unclaimed task of the published job — the lowest for
// the caller, the highest for a helper (back), so each keeps its shard
// in its core's cache — and its job, read between the ticket load and
// a compare-and-swap from that value. The swap succeeds only while that
// generation has a task unclaimed, and run publishes the next job only
// once every task has finished: no task runs with another's job.
func (h *handoff) claim(back bool) (*func(int), int, bool) {
	for {
		t := h.ticket.Load()
		lo, hi := int(t>>16&0xffff), int(t&0xffff)
		if lo >= hi {
			return nil, 0, false
		}
		j := h.job.Load()
		if back && h.ticket.CompareAndSwap(t, t-1) {
			return j, hi - 1, true
		}
		if !back && h.ticket.CompareAndSwap(t, t+1<<16) {
			return j, lo, true
		}
	}
}

// work is one helper: admitted, it claims and runs tasks, spinning
// between jobs and asking every spinLoads tries whether it still fits;
// refused, or idle past its spins, it parks — and exits there once the
// handoff is closed.
func (h *handoff) work() {
	defer h.exited.Done()
	for {
		stepping.Add(1)
		for k, idle := 0, 0; idle < helperSpins*spinLoads; k++ {
			if k%spinLoads == 0 && stepping.Load() > int32(h.limit) {
				break // refused: every core already steps
			}
			if j, i, ok := h.claim(true); ok {
				(*j)(i)
				h.done.Add(1)
				idle = 0
			} else if idle++; idle%spinLoads == 0 {
				runtime.Gosched()
			}
		}
		stepping.Add(-1)
		h.parked.Add(1)
		select {
		case <-h.wake:
			h.parked.Add(-1)
		case <-h.quit:
			return
		}
	}
}

// close stops the helpers and returns once they have exited.
func (h *handoff) close() {
	h.once.Do(func() { close(h.quit) })
	h.exited.Wait()
}

// stepping is the process-wide count of goroutines stepping a machine:
// callers inside run and admitted helpers.
var stepping atomic.Int32
