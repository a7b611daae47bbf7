package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// trafficFabric builds a fabric saturated with the canonical
// BuildFlows pattern (four directional flows on colors 0–3), plus
// multicast on color 4: row 0 forwards east while also delivering to
// each core's ramp.
func trafficFabric(w, h int, st *Stepper) *Fabric {
	f := New(Config{W: w, H: h, Stepper: st})
	BuildFlows(f)
	// Multicast row: forward east and deliver locally at every hop.
	f.SetRoute(Coord{0, 0}, Ramp, 4, Mask(East, Ramp))
	for x := 1; x < w-1; x++ {
		f.SetRoute(Coord{x, 0}, West, 4, Mask(East, Ramp))
	}
	f.SetRoute(Coord{w - 1, 0}, West, 4, Mask(Ramp))
	return f
}

// driveCycle injects pseudo-random traffic at the flow sources and
// drains the sinks, returning the drained words in deterministic order.
// Both fabrics of an equivalence pair run this with identically seeded
// generators; because Send/Recv outcomes depend only on fabric state,
// the generators stay in lockstep as long as the fabrics agree.
func driveCycle(f *Fabric, rng *rand.Rand) []Word {
	w, h := f.W, f.H
	for y := 0; y < h; y++ {
		if rng.Intn(3) > 0 {
			f.Send(Coord{0, y}, Word{Color: 0, Bits: rng.Uint32()})
		}
		if rng.Intn(3) > 0 {
			f.Send(Coord{w - 1, y}, Word{Color: 1, Bits: rng.Uint32()})
		}
	}
	for x := 0; x < w; x++ {
		if rng.Intn(3) > 0 {
			f.Send(Coord{x, 0}, Word{Color: 2, Bits: rng.Uint32()})
		}
		if rng.Intn(3) > 0 {
			f.Send(Coord{x, h - 1}, Word{Color: 3, Bits: rng.Uint32()})
		}
	}
	if rng.Intn(2) == 0 {
		f.Send(Coord{0, 0}, Word{Color: 4, Bits: rng.Uint32()})
	}
	f.Step()
	var got []Word
	for y := 0; y < h; y++ {
		if wd, ok := f.Recv(Coord{w - 1, y}, 0); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{0, y}, 1); ok {
			got = append(got, wd)
		}
	}
	for x := 0; x < w; x++ {
		if wd, ok := f.Recv(Coord{x, h - 1}, 2); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{x, 0}, 3); ok {
			got = append(got, wd)
		}
		if wd, ok := f.Recv(Coord{x, 0}, 4); ok {
			got = append(got, wd)
		}
	}
	return got
}

// TestPoolCloseIdempotentAndInlineAfter checks the Close contract:
// Close is idempotent (any number of calls, via the Fabric or the
// Stepper), and a closed engine keeps stepping with bit-identical
// results — it just runs inline.
func TestPoolCloseIdempotentAndInlineAfter(t *testing.T) {
	seq := trafficFabric(12, 12, Sequential())
	st := Sharded(4)
	par := trafficFabric(12, 12, st)
	ForceParallel(par)
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	for cyc := 0; cyc < 60; cyc++ {
		driveCycle(seq, rngA)
		driveCycle(par, rngB)
	}
	if st.ho == nil {
		t.Fatal("forced parallel stepping did not start the handoff")
	}
	par.Close()
	par.Close() // idempotent via the fabric
	st.Close()  // and via the stepper
	par.Close() // and again
	if st.ho != nil {
		t.Fatal("Close left the handoff attached")
	}
	for cyc := 0; cyc < 60; cyc++ {
		driveCycle(seq, rngA)
		driveCycle(par, rngB)
		if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
			t.Fatalf("post-Close cycle %d: fingerprints diverge: %#x vs %#x", cyc, fa, fb)
		}
	}
	// Closing an engine that never went parallel (or the Sequential
	// engine) is a no-op.
	seq.Close()
	seq.Close()
}

// settledGoroutines forces garbage collection until the goroutine count
// stops changing, so handoffs left behind by earlier tests (reclaimed
// asynchronously by their runtime cleanups) cannot skew a baseline.
func settledGoroutines() int {
	prev := -1
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == prev {
			return n
		} else {
			prev = n
		}
	}
	return prev
}

// TestPoolGoroutinesReleasedOnClose pins the lifecycle guarantee that
// motivated the Close/cleanup design: after Close, the helper
// goroutines exit and the count returns to its pre-handoff baseline. A
// forced six-shard engine runs one helper per shard beyond the first.
func TestPoolGoroutinesReleasedOnClose(t *testing.T) {
	const workers = 6
	base := settledGoroutines()
	st := Sharded(workers)
	f := trafficFabric(10, 10, st)
	ForceParallel(f)
	helpers := st.helpers
	if helpers != workers-1 {
		t.Fatalf("forced %d-shard engine has %d helpers, want %d", workers, helpers, workers-1)
	}
	rng := rand.New(rand.NewSource(5))
	for cyc := 0; cyc < 30; cyc++ {
		driveCycle(f, rng)
	}
	if g := runtime.NumGoroutine(); g < base+helpers {
		t.Fatalf("helpers not running: %d goroutines, baseline %d, want >= %d", g, base, base+helpers)
	}
	f.Close()
	// Helpers exit as soon as they observe the closed quit channel; give
	// the scheduler a generous window, with slack for unrelated runtime
	// goroutines.
	deadline := time.Now().Add(5 * time.Second)
	slack := base + 1
	for runtime.NumGoroutine() > slack && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > slack {
		t.Fatalf("goroutines did not return to baseline after Close: %d, baseline %d", g, base)
	}
}

// buildAbandonedPool starts a handoff and drops every reference to the
// fabric and stepper. Kept noinline so no stack slot in the caller can
// keep the fabric reachable.
//
//go:noinline
func buildAbandonedPool(workers int) {
	f := trafficFabric(10, 10, Sharded(workers))
	ForceParallel(f)
	rng := rand.New(rand.NewSource(6))
	for cyc := 0; cyc < 10; cyc++ {
		driveCycle(f, rng)
	}
}

// TestPoolReclaimedWithoutClose pins the "handoff must not pin the
// Fabric" half of the design: a fabric that is dropped without Close
// becomes unreachable (idle helpers hold no reference to it), its
// runtime cleanup fires, and the helper goroutines exit on their own.
func TestPoolReclaimedWithoutClose(t *testing.T) {
	base := settledGoroutines()
	buildAbandonedPool(6)
	deadline := time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for got > base+1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base+1 {
		t.Fatalf("abandoned handoff was not reclaimed: %d goroutines, baseline %d — the handoff is pinning the fabric", got, base)
	}
}

// TestPoolServesCoreStepping checks RunSharded: the same helpers (same
// tile partition) that step the routers serve per-tile callbacks, and
// every shard range is visited exactly once per call.
func TestPoolServesCoreStepping(t *testing.T) {
	f := New(Config{W: 8, H: 8, Stepper: Sharded(4)})
	defer f.Close()
	ForceParallel(f)
	counts := make([]int, 64)
	var mu sync.Mutex
	for round := 0; round < 3; round++ {
		f.RunSharded(0, func(s int) {
			r := f.ShardRanges()[s]
			mu.Lock()
			for ti := r[0]; ti < r[1]; ti++ {
				counts[ti]++
			}
			mu.Unlock()
		})
	}
	for ti, c := range counts {
		if c != 3 {
			t.Fatalf("tile %d visited %d times over 3 RunSharded calls, want 3", ti, c)
		}
	}
}

// TestShardedWorkerClamp pins the documented clamp rule: workers <= 0
// means one per available CPU but at most one per parallelHotPerShard
// tiles, and at bind time the shard count is capped at the tile count.
func TestShardedWorkerClamp(t *testing.T) {
	gmp := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	cases := []struct {
		name       string
		req        int
		w, h       int
		wantShards int
	}{
		{"negative-means-gomaxprocs", -3, 32, 32, min(gmp, 16)},
		{"zero-means-gomaxprocs", 0, 32, 32, min(gmp, 16)},
		{"zero-caps-at-tiles-per-shard", 0, 12, 12, min(gmp, 2)},
		{"one-is-sequential", 1, 8, 8, 1},
		{"plain", 5, 32, 32, 5},
		{"more-workers-than-tiles", 99, 2, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := Sharded(tc.req)
			f := New(Config{W: tc.w, H: tc.h, Stepper: st})
			defer f.Close()
			if got := len(f.ShardRanges()); got != tc.wantShards {
				t.Errorf("Sharded(%d) on %dx%d: %d shards, want %d",
					tc.req, tc.w, tc.h, got, tc.wantShards)
			}
			// Shards must tile [0, W*H) contiguously with no gaps.
			next := 0
			for _, sr := range f.ShardRanges() {
				if sr[0] != next || sr[1] < sr[0] {
					t.Fatalf("shard ranges not contiguous: %v", f.ShardRanges())
				}
				next = sr[1]
			}
			if next != tc.w*tc.h {
				t.Fatalf("shard ranges do not cover the fabric: %v", f.ShardRanges())
			}
		})
	}
}

// TestStepperRebindPanicMessage pins that the double-bind panic carries
// an actionable message.
func TestStepperRebindPanicMessage(t *testing.T) {
	st := Sharded(2)
	New(Config{W: 4, H: 4, Stepper: st})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on rebinding a Stepper")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "already bound") {
			t.Fatalf("rebind panic message %q does not mention the double bind", msg)
		}
	}()
	New(Config{W: 4, H: 4, Stepper: st})
}
