package kernels

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// withProcs raises GOMAXPROCS so sharded fabrics start their
// helpers on a multi-CPU host whatever GOMAXPROCS the test runs under
// (machines cache the value at construction), restoring it when the
// test ends.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// shardedMachines builds a sequential machine and a fast-forward one on
// workers shards, of the same shape, for lockstep comparison. The
// sequential leg names its engine: EngineAuto is fast-forward.
func shardedMachines(w, h, workers int) (*wse.Machine, *wse.Machine) {
	seqCfg := wse.CS1(w, h)
	seqCfg.Engine = wse.EngineSequential
	shCfg := wse.CS1(w, h)
	shCfg.Workers = workers
	return wse.New(seqCfg), wse.New(shCfg)
}

// TestAllReduceShardedIdentical runs the Figure 6 AllReduce on a
// sequential and a sharded fabric and requires bit-identical sums,
// per-tile results and cycle counts — the kernels-level face of the
// stepper determinism contract.
func TestAllReduceShardedIdentical(t *testing.T) {
	withProcs(t, 4)
	mseq, msh := shardedMachines(12, 10, 4)
	arA, err := NewAllReduce(mseq, 0)
	if err != nil {
		t.Fatal(err)
	}
	arB, err := NewAllReduce(msh, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vals := make([]float32, 12*10)
	for round := 0; round < 3; round++ {
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		ra, err := arA.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := arB.Run(vals, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Sum != rb.Sum || ra.Cycles != rb.Cycles {
			t.Fatalf("round %d: seq (sum %g, %d cycles) != sharded (sum %g, %d cycles)",
				round, ra.Sum, ra.Cycles, rb.Sum, rb.Cycles)
		}
		for i := range ra.PerTile {
			if ra.PerTile[i] != rb.PerTile[i] {
				t.Fatalf("round %d: per-tile result %d differs: %g vs %g", round, i, ra.PerTile[i], rb.PerTile[i])
			}
		}
	}
}

// TestSpMV3DShardedIdentical runs the Listing 1 SpMV on both engines and
// requires the identical result vector, cycle count and fabric state
// fingerprint.
func TestSpMV3DShardedIdentical(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(5))
	m := stencil.Mesh{NX: 6, NY: 6, NZ: 32}
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	h := stencil.NewOp7Half(norm)
	mseq, msh := shardedMachines(m.NX, m.NY, 3)
	pa, err := NewSpMV3D(mseq, h)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewSpMV3D(msh, h)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]fp16.Float16, m.N())
	for i := range v {
		v[i] = fp16.FromFloat64(rng.NormFloat64())
	}
	pa.LoadVector(v)
	pb.LoadVector(v)
	ca, err := pa.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := pb.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("cycle counts differ: seq %d sharded %d", ca, cb)
	}
	ra, rb := pa.Result(), pb.Result()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result element %d differs: %v vs %v", i, ra[i], rb[i])
		}
	}
	if fa, fb := mseq.Fab.Fingerprint(), msh.Fab.Fingerprint(); fa != fb {
		t.Fatalf("fabric fingerprints differ after SpMV: %#x vs %#x", fa, fb)
	}
}

// TestBiCGStabWSEShardedIdentical runs full wafer BiCGStab solves on
// both engines: identical iterate bits, residual histories and cycle
// breakdowns.
func TestBiCGStabWSEShardedIdentical(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(11))
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 16}
	op := stencil.RandomDiagDominant(m, 1.5, rng)
	norm, diag := op.Normalize()
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = 0.25 + float64(i%7)*0.1
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	b16 := fp16.FromFloat64Slice(stencil.ScaleRHS(b64, diag))

	run := func(workers int) ([]fp16.Float16, WSEStats) {
		cfg := wse.CS1(m.NX, m.NY)
		cfg.Workers = workers
		if workers <= 1 {
			cfg.Engine = wse.EngineSequential // EngineAuto would fast-forward
		}
		mach := wse.New(cfg)
		w, err := NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := w.Solve(b16, WSEOptions{MaxIter: 4})
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	xa, sta := run(0)
	xb, stb := run(4)
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("solution element %d differs: %v vs %v", i, xa[i], xb[i])
		}
	}
	if sta.Iterations != stb.Iterations || sta.Cycles != stb.Cycles {
		t.Fatalf("stats differ: seq %+v sharded %+v", sta, stb)
	}
	for i := range sta.History {
		if sta.History[i] != stb.History[i] {
			t.Fatalf("residual history %d differs: %g vs %g", i, sta.History[i], stb.History[i])
		}
	}
}
