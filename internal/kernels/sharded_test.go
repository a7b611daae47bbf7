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
