package fabric

import (
	"fmt"
	"math/rand"
	"testing"
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

// TestShardedMatchesSequential is the golden equivalence test of the
// determinism contract: a randomized routed fabric stepped by Sequential
// and by Sharded(workers) must agree on the complete architectural state
// — every router queue and receive buffer, word for word — and on the
// words delivered to cores, every single cycle.
func TestShardedMatchesSequential(t *testing.T) {
	cases := []struct {
		w, h, workers int
	}{
		{8, 8, 2},
		{8, 8, 8},
		{16, 16, 4},
		{16, 16, 7}, // uneven shard sizes
		{5, 9, 3},   // non-square, workers not dividing rows
		{12, 4, 16}, // more workers than rows
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d-w%d", tc.w, tc.h, tc.workers), func(t *testing.T) {
			t.Parallel()
			seq := trafficFabric(tc.w, tc.h, Sequential())
			par := trafficFabric(tc.w, tc.h, Sharded(tc.workers))
			// Small fabrics would otherwise always take the quiet-cycle
			// inline fallback; force the concurrent path under test.
			ForceParallel(par)
			rngA := rand.New(rand.NewSource(42))
			rngB := rand.New(rand.NewSource(42))
			cycles := 400
			for cyc := 0; cyc < cycles; cyc++ {
				a := driveCycle(seq, rngA)
				b := driveCycle(par, rngB)
				if len(a) != len(b) {
					t.Fatalf("cycle %d: delivered %d words sequentially, %d sharded", cyc, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d: delivery %d differs: seq %+v sharded %+v", cyc, i, a[i], b[i])
					}
				}
				if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
					t.Fatalf("cycle %d: state fingerprints diverge: seq %#x sharded %#x", cyc, fa, fb)
				}
				if seq.Moves() != par.Moves() {
					t.Fatalf("cycle %d: moves diverge: seq %d sharded %d", cyc, seq.Moves(), par.Moves())
				}
			}
		})
	}
}

// TestShardedDrain checks the engines agree through a full drain to
// quiescence, not just under continuous injection.
func TestShardedDrain(t *testing.T) {
	seq := trafficFabric(16, 16, Sequential())
	par := trafficFabric(16, 16, Sharded(8))
	ForceParallel(par)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 64; cyc++ {
		driveCycle(seq, rngA)
		driveCycle(par, rngB)
	}
	// Stop injecting; drain both, popping sinks so backpressure clears.
	for cyc := 0; cyc < 4096 && !(seq.Quiescent() && par.Quiescent()); cyc++ {
		seq.Step()
		par.Step()
		for y := 0; y < 16; y++ {
			seq.Recv(Coord{15, y}, 0)
			par.Recv(Coord{15, y}, 0)
			seq.Recv(Coord{0, y}, 1)
			par.Recv(Coord{0, y}, 1)
		}
		for x := 0; x < 16; x++ {
			seq.Recv(Coord{x, 15}, 2)
			par.Recv(Coord{x, 15}, 2)
			seq.Recv(Coord{x, 0}, 3)
			par.Recv(Coord{x, 0}, 3)
			seq.Recv(Coord{x, 0}, 4)
			par.Recv(Coord{x, 0}, 4)
		}
		if fa, fb := seq.Fingerprint(), par.Fingerprint(); fa != fb {
			t.Fatalf("drain cycle %d: fingerprints diverge", cyc)
		}
	}
	if !seq.Quiescent() || !par.Quiescent() {
		t.Fatalf("fabrics did not drain: seq=%v sharded=%v", seq.Quiescent(), par.Quiescent())
	}
}

// TestStepperRebindPanics pins the single-binding contract.
func TestStepperRebindPanics(t *testing.T) {
	st := Sharded(4)
	New(Config{W: 4, H: 4, Stepper: st})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rebinding a Stepper")
		}
	}()
	New(Config{W: 4, H: 4, Stepper: st})
}
