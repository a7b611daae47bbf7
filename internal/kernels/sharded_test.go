package kernels

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fabric"
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

// TestSpMV3DShardedArming runs Listing 1 on the sequential engine and on
// a fabric forced onto three shards, where Run arms each shard's tiles
// on that shard's goroutine: three consecutive applications, then one
// after a reset to the pristine capture, which repeats the first
// application's input. After each, both machines must hold the same
// result bits, cycles and fingerprint, and the reset application must
// reproduce the first.
func TestSpMV3DShardedArming(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(17))
	m := stencil.Mesh{NX: 9, NY: 7, NZ: 16}
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	h := stencil.NewOp7Half(norm)
	mseq, msh := shardedMachines(m.NX, m.NY, 3)
	fabric.ForceParallel(msh.Fab)
	if n := len(msh.Fab.ShardRanges()); n < 3 {
		t.Fatalf("%d shards, want at least 3", n)
	}
	type leg struct {
		m        *wse.Machine
		p        *SpMV3D
		pristine *wse.Snapshot
	}
	legs := [2]*leg{{m: mseq}, {m: msh}}
	for _, l := range legs {
		var err error
		if l.p, err = NewSpMV3D(l.m, h); err != nil {
			t.Fatal(err)
		}
		if _, err = l.m.RunUntil(l.m.AllIdle, 1<<20); err != nil {
			t.Fatal(err)
		}
		if l.pristine, err = l.m.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		cycles int64
		result []fp16.Float16
		fp     uint64
	}
	inputs := make([][]fp16.Float16, 3)
	for i := range inputs {
		inputs[i] = make([]fp16.Float16, m.N())
		for k := range inputs[i] {
			inputs[i][k] = fp16.FromFloat64(rng.NormFloat64())
		}
	}
	var first outcome
	for app, v := range append(inputs, inputs[0]) {
		var got [2]outcome
		for k, l := range legs {
			if app == len(inputs) {
				if err := l.m.Restore(l.pristine); err != nil {
					t.Fatal(err)
				}
			}
			l.p.LoadVector(v)
			c, err := l.p.Run(1 << 22)
			if err != nil {
				t.Fatalf("application %d, leg %d: %v", app, k, err)
			}
			got[k] = outcome{c, l.p.Result(), l.m.Fingerprint()}
		}
		if got[0].cycles != got[1].cycles || got[0].fp != got[1].fp || !slices.Equal(got[0].result, got[1].result) {
			t.Fatalf("application %d: sequential (%d cycles, fingerprint %#x) and sharded (%d cycles, fingerprint %#x) differ, or their results do",
				app, got[0].cycles, got[0].fp, got[1].cycles, got[1].fp)
		}
		switch app {
		case 0:
			first = got[0]
		case len(inputs):
			if got[0].cycles != first.cycles || got[0].fp != first.fp || !slices.Equal(got[0].result, first.result) {
				t.Fatalf("the application after Reset (%d cycles, fingerprint %#x) does not repeat the first (%d cycles, fingerprint %#x)",
					got[0].cycles, got[0].fp, first.cycles, first.fp)
			}
		}
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
