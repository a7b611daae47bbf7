package multiwafer

import (
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
)

// TestMultiWafer64CubedEquivalence is the acceptance golden for the
// cluster backend: the 64³ BiCGStab solve that cmd/wsesim runs with
// `-wafers 2x1` produces residual histories (and solutions) bit
// identical to the 1-wafer run. Both clusters step on four shards per
// wafer, so the test also crosses shard boundaries, and it runs under
// -race in CI — the full-suite race step does not skip it.
func TestMultiWafer64CubedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ cycle simulation in short mode")
	}
	const n = 64
	m := stencil.Mesh{NX: n, NY: n, NZ: n}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	rng := rand.New(rand.NewSource(64))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b := make([]float64, m.N())
	op.Apply(b, xe)
	norm, diag := op.Normalize()
	h := stencil.NewOp7Half(norm)
	sb := fp16.FromFloat64Slice(stencil.ScaleRHS(b, diag))

	run := func(grid Topology) ([]fp16.Float16, Stats) {
		c, err := New(Config{Grid: grid, Workers: 4}, h)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		defer c.Close()
		x, st, err := c.Solve(sb, kernels.WSEOptions{MaxIter: 3})
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		return x, st
	}

	oneX, oneSt := run(Topology{1, 1})
	twoX, twoSt := run(Topology{2, 1})

	if len(oneSt.History) != len(twoSt.History) || len(oneSt.History) == 0 {
		t.Fatalf("history lengths: 1-wafer %d, 2-wafer %d", len(oneSt.History), len(twoSt.History))
	}
	for i := range oneSt.History {
		if oneSt.History[i] != twoSt.History[i] {
			t.Fatalf("history[%d]: 1-wafer %.17g, 2-wafer %.17g", i, oneSt.History[i], twoSt.History[i])
		}
	}
	for i := range oneX {
		if oneX[i] != twoX[i] {
			t.Fatalf("x[%d]: 1-wafer %04x, 2-wafer %04x", i, oneX[i].Bits(), twoX[i].Bits())
		}
	}
	// The split must actually have cost something over the edge.
	if twoSt.Cycles.EdgeIO == 0 || twoSt.Cycles.Combine == 0 {
		t.Errorf("2-wafer run charged no inter-wafer cycles: %+v", twoSt.Cycles)
	}
	t.Logf("64³ histories (%d iters) bit-identical; 1-wafer %d cyc/iter, 2-wafer %d cyc/iter (edge I/O %d, combine %d)",
		oneSt.Iterations, oneSt.PerIteration.Total(), twoSt.PerIteration.Total(),
		twoSt.PerIteration.EdgeIO, twoSt.PerIteration.Combine)
}
