package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/wse"
)

// referenceSum is the float64 sum of values, for accuracy checks.
func referenceSum(values []float32) float64 {
	var s float64
	for _, v := range values {
		s += float64(v)
	}
	return s
}

func runAllReduce(t *testing.T, w, h int, seed int64) (AllReduceResult, []float32) {
	t.Helper()
	mach := wse.New(wse.CS1(w, h))
	ar, err := NewAllReduce(mach, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, w*h)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	res, err := ar.Run(vals, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return res, vals
}

func TestAllReduceCorrectness(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {1, 8}, {8, 1}, {4, 4}, {8, 6}, {7, 7}, {16, 12}, {9, 16}} {
		res, vals := runAllReduce(t, dims[0], dims[1], int64(dims[0]*100+dims[1]))
		want := referenceSum(vals)
		tol := allReduceTol(vals)
		if math.Abs(float64(res.Sum)-want) > tol+1e-12 {
			t.Errorf("%dx%d: sum = %g, want %g (tol %g)", dims[0], dims[1], res.Sum, want, tol)
		}
		// Broadcast: every tile holds the same result.
		for i, v := range res.PerTile {
			if v != res.Sum {
				t.Fatalf("%dx%d: tile %d got %g, root %g", dims[0], dims[1], i, v, res.Sum)
			}
		}
	}
}

// TestAllReduceSchedule holds the lowered schedule to the tree it
// describes on random fabrics up to 40×40: the sinks' receive stages
// expect every partial but the root's, every tile but the root sends on
// a reduction color and the root on red, and an all-ones reduction
// returns W·H exactly, in the cycles perfmodel's parity-aware model
// predicts.
func TestAllReduceSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		ar, err := NewAllReduce(wse.New(wse.CS1(w, h)), 0)
		if err != nil {
			t.Fatal(err)
		}
		need := 0
		for i := range ar.tiles {
			for _, s := range ar.tiles[i].stages {
				need += s.need
			}
		}
		if need != w*h-1 {
			t.Errorf("%dx%d: sinks expect %d words, want %d", w, h, need, w*h-1)
		}
		ones := make([]float32, w*h)
		for i := range ones {
			ones[i] = 1
		}
		res, err := ar.Run(ones, 1<<20)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if model := (perfmodel.WSE{W: w, H: h}).AllReduceCycles(); res.Sum != float32(w*h) || float64(res.Cycles) != model {
			t.Errorf("%dx%d: sum %g in %d cycles, want %d in %g", w, h, res.Sum, res.Cycles, w*h, model)
		}
		root := ar.cy0*w + ar.cx0
		for i := range ar.tiles {
			if tl := &ar.tiles[i]; !tl.sent || (tl.out == ar.red) != (i == root) {
				t.Errorf("%dx%d: tile %v sent %v on color %d (root %v, red %d)", w, h, tl.at, tl.sent, tl.out, i == root, ar.red)
			}
		}
	}
}

func TestAllReduceRepeated(t *testing.T) {
	// BiCGStab does four AllReduces per iteration on the same routing.
	mach := wse.New(wse.CS1(6, 6))
	ar, err := NewAllReduce(mach, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		vals := make([]float32, 36)
		for i := range vals {
			vals[i] = float32(i%5) + float32(rep)
		}
		res, err := ar.Run(vals, 10000)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if math.Abs(float64(res.Sum)-referenceSum(vals)) > 1e-3 {
			t.Fatalf("rep %d: sum %g, want %g", rep, res.Sum, referenceSum(vals))
		}
	}
}

func TestAllReduceDeterministic(t *testing.T) {
	// Fixed routing implies a fixed arrival order, so the float32 sum is
	// bit-reproducible across runs.
	a, _ := runAllReduce(t, 10, 6, 77)
	b, _ := runAllReduce(t, 10, 6, 77)
	if a.Sum != b.Sum {
		t.Errorf("allreduce not deterministic: %g vs %g", a.Sum, b.Sum)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("allreduce cycle count not deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestAllReduceSharesFabricWithSpMV(t *testing.T) {
	// The BiCGStab driver uses stencil colors 0-4 and allreduce colors
	// 5-10 on the same fabric; both must work after joint configuration.
	p, h, rng := newSpMVProgram(t, 4, 4, 8, 9)
	ar, err := NewAllReduce(p.M, NumStencilColors)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 16)
	for i := range vals {
		vals[i] = float32(rng.Intn(10))
	}
	res, err := ar.Run(vals, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Sum)-referenceSum(vals)) > 1e-3 {
		t.Fatalf("sum %g, want %g", res.Sum, referenceSum(vals))
	}
	// And the SpMV still runs afterwards.
	vv := randomHalfVector(h.M.N(), rng)
	p.LoadVector(vv)
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	checkSpMVResult(t, p, h, vv)
}

// TestAllReduceLeavesMachineIdle pins a worklist-engine regression: the
// AllReduce drives the fabric directly, and its ramp deliveries land at
// cores with no stream subscriptions. Those rx wakes must not enqueue
// cores on the machine's runnable worklists — the machine is never
// core-stepped here, so stale entries would make AllIdle report a busy
// machine forever (the polling engine correctly reported idle).
func TestAllReduceLeavesMachineIdle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := wse.New(func() wse.Config { c := wse.CS1(8, 8); c.Workers = workers; return c }())
		defer m.Close()
		ar, err := NewAllReduce(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, 64)
		for i := range vals {
			vals[i] = float32(i)
		}
		if _, err := ar.Run(vals, 1<<20); err != nil {
			t.Fatal(err)
		}
		if !m.AllIdle() {
			t.Errorf("workers=%d: machine not AllIdle after a fabric-level AllReduce", workers)
		}
	}
}
