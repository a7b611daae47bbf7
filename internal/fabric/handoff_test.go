package fabric

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// onHelper reports whether the calling goroutine is a handoff helper.
func onHelper() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, ".(*handoff).work") {
			return true
		}
		if !more {
			return false
		}
	}
}

// runAll runs an n-task job on h and returns, per task, how often it
// ran and whether it ran on a helper.
func runAll(h *handoff, n int) (runs []int32, helped []bool) {
	runs, helped = make([]int32, n), make([]bool, n)
	job := func(i int) {
		atomic.AddInt32(&runs[i], 1)
		helped[i] = onHelper()
	}
	h.run(&job, n)
	return runs, helped
}

// TestHandoffRefusedHelperParks pins admission: while every P already
// steps, a helper is refused and parks instead of spinning, run does
// not wake it, and the runs complete every task on the caller. Once the
// Ps free up, the next run wakes it and it takes a task again.
func TestHandoffRefusedHelperParks(t *testing.T) {
	const limit = 2
	stepping.Add(limit) // two goroutines stepping elsewhere fill both Ps
	busy := true
	defer func() {
		if busy {
			stepping.Add(-limit)
		}
	}()
	h := newHandoff(1, limit)
	defer h.close()
	deadline := time.Now().Add(5 * time.Second)
	for h.parked.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("refused helper did not park")
		}
		time.Sleep(time.Millisecond)
	}
	for round := 0; round < 50; round++ {
		runs, helped := runAll(h, 5)
		for i := range runs {
			if runs[i] != 1 || helped[i] {
				t.Fatalf("round %d task %d: ran %d times, on a helper %v; want once, on the caller", round, i, runs[i], helped[i])
			}
		}
	}
	if len(h.wake) != 0 || h.parked.Load() != 1 {
		t.Fatalf("runs woke the refused helper: %d wake tokens, %d parked", len(h.wake), h.parked.Load())
	}
	stepping.Add(-limit)
	busy = false
	awaitNoneStepping(t)
	var started [2]atomic.Bool
	var helped [2]bool
	job := func(i int) {
		started[i].Store(true)
		helped[i] = onHelper()
		for wait := time.Now().Add(5 * time.Second); !started[1-i].Load() && time.Now().Before(wait); {
			runtime.Gosched()
		}
	}
	h.run(&job, 2)
	if helped[0] == helped[1] {
		t.Fatalf("with the Ps free: tasks on a helper %v, want exactly one", helped)
	}
}

// awaitNoneStepping waits until no goroutine counts as stepping: the
// helpers of earlier tests park once idle.
func awaitNoneStepping(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); stepping.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still stepping", stepping.Load())
		}
	}
}

// TestHandoffPanicReleasesSlot pins that a task panicking on the caller
// does not leave the caller counted as stepping, which would refuse
// every later helper in the process.
func TestHandoffPanicReleasesSlot(t *testing.T) {
	h := newHandoff(0, 1<<30)
	defer h.close()
	awaitNoneStepping(t)
	func() {
		defer func() { _ = recover() }()
		job := func(int) { panic("task") }
		h.run(&job, 1)
	}()
	if n := stepping.Load(); n != 0 {
		t.Fatalf("%d goroutines count as stepping after the panicking run, want 0", n)
	}
}

// TestHandoffParkedHelperNotAwaited pins that run never waits for a
// helper to start: with a helper parked that never wakes, every task
// runs once, on the caller.
func TestHandoffParkedHelperNotAwaited(t *testing.T) {
	h := &handoff{limit: 1 << 30, wake: make(chan struct{}, 1), quit: make(chan struct{})}
	h.parked.Store(1) // a parked helper the scheduler never runs
	runs, helped := runAll(h, 7)
	for i := range runs {
		if runs[i] != 1 || helped[i] {
			t.Fatalf("task %d: ran %d times, on a helper %v; want once, on the caller", i, runs[i], helped[i])
		}
	}
	if len(h.wake) != 1 {
		t.Fatalf("run left %d wake tokens for the parked helper, want 1", len(h.wake))
	}
}

// TestHandoffWakesIdleHelper pins that a run wakes a helper that parked
// for lack of work, every run and not only when it next asks for room:
// each round's two tasks wait for each other, so they finish only if
// the woken helper takes one.
func TestHandoffWakesIdleHelper(t *testing.T) {
	h := newHandoff(1, 1<<30)
	defer h.close()
	for round := 0; round < 5; round++ {
		deadline := time.Now().Add(5 * time.Second)
		for h.parked.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("idle helper did not park")
			}
			time.Sleep(time.Millisecond)
		}
		var started [2]atomic.Bool
		var helped [2]bool
		job := func(i int) {
			started[i].Store(true)
			helped[i] = onHelper()
			for wait := time.Now().Add(5 * time.Second); !started[1-i].Load() && time.Now().Before(wait); {
				runtime.Gosched()
			}
		}
		h.run(&job, 2)
		if helped[0] == helped[1] {
			t.Fatalf("round %d: tasks on a helper %v, want exactly one", round, helped)
		}
	}
}

// TestHandoffNoStaleJob runs many short jobs back to back on eager
// helpers. Each round's job writes its own round number into its task
// slots; a helper that ran a task of one round with the job of an
// earlier one would leave an old number behind (and the race detector
// would see the unordered write).
func TestHandoffNoStaleJob(t *testing.T) {
	h := newHandoff(3, 1<<30)
	defer h.close()
	rng := rand.New(rand.NewSource(1))
	slots := make([]int, 16)
	for round := 1; round <= 20000; round++ {
		n := 1 + rng.Intn(len(slots))
		job := func(i int) { slots[i] = round }
		h.run(&job, n)
		for i := 0; i < n; i++ {
			if slots[i] != round {
				t.Fatalf("round %d: task %d holds round %d's result", round, i, slots[i])
			}
		}
	}
}

// TestConcurrentFabricsMatchSerial steps two sharded fabrics from two
// goroutines at once — one forced onto its helpers every cycle, one
// under the admission rule — and requires every cycle's fingerprint to
// equal a sequential fabric's, stepped alone beforehand.
func TestConcurrentFabricsMatchSerial(t *testing.T) {
	const cycles = 300
	trace := func(f *Fabric, seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		fps := make([]uint64, cycles)
		for c := range fps {
			driveCycle(f, rng)
			fps[c] = f.Fingerprint()
		}
		return fps
	}
	want := [2][]uint64{trace(trafficFabric(16, 12, Sequential()), 1), trace(trafficFabric(16, 12, Sequential()), 2)}

	var got [2][]uint64
	var wg sync.WaitGroup
	for k := range got {
		f := trafficFabric(16, 12, Sharded(3))
		defer f.Close()
		if k == 0 {
			ForceParallel(f)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = trace(f, int64(k+1))
		}()
	}
	wg.Wait()
	for k := range got {
		for c := range got[k] {
			if got[k][c] != want[k][c] {
				t.Fatalf("fabric %d, cycle %d: fingerprint %#x, serial run %#x", k, c, got[k][c], want[k][c])
			}
		}
	}
}
