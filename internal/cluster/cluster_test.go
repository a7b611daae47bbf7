package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/solver"
	"repro/internal/stencil"
)

func TestDecompose3D(t *testing.T) {
	m := stencil.Mesh{NX: 64, NY: 64, NZ: 64}
	for _, p := range []int{1, 2, 4, 8, 16, 64, 512} {
		px, py, pz := cluster.Decompose3D(m, p)
		if px*py*pz != p {
			t.Errorf("p=%d: %d×%d×%d does not multiply out", p, px, py, pz)
		}
	}
	// A flat mesh should not be cut along its thin axis.
	flat := stencil.Mesh{NX: 128, NY: 128, NZ: 2}
	px, py, pz := cluster.Decompose3D(flat, 16)
	if pz > 2 {
		t.Errorf("thin axis over-decomposed: %d×%d×%d", px, py, pz)
	}
}

// rankSolve runs the rank-parallel float64 solve this package's Joule
// model times — core's Cluster backend: the host BiCGStab over
// solver.Parallel(solver.NewF64Exact(), ranks), which cuts the mesh's
// columns with SplitExtent. The tests below are contract 2 (results
// independent of rank count and goroutine schedule) on dividing meshes;
// internal/solver's TestParallelRankSweep covers the non-dividing ones.
func rankSolve(t *testing.T, norm *stencil.Op7, b []float64, ranks, maxIter int, tol float64) ([]float64, []float64) {
	t.Helper()
	ctx, err := solver.Parallel(solver.NewF64Exact(), ranks)
	if err != nil {
		t.Fatalf("ranks=%d: %v", ranks, err)
	}
	x, st, err := solver.Host{Context: ctx}.Solve(norm, b, make([]float64, len(b)),
		solver.Options{MaxIter: maxIter, Tol: tol, RecordHistory: true})
	if err != nil {
		t.Fatalf("ranks=%d: %v", ranks, err)
	}
	if len(st.History) == 0 {
		t.Fatalf("ranks=%d: empty residual history", ranks)
	}
	return x, st.History
}

func TestParallelMatchesSequential(t *testing.T) {
	m := stencil.Mesh{NX: 12, NY: 12, NZ: 12}
	rng := rand.New(rand.NewSource(17))
	op := stencil.ConvectionDiffusion(m, 0.2, [3]float64{1, -0.4, 0.3}, 0.25)
	norm, diag := op.Normalize()
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	sb := stencil.ScaleRHS(b64, diag)

	// Sequential reference via the solver package.
	ctx := solver.NewF64()
	a := ctx.NewOperator(norm)
	bv := ctx.NewVector(m.N())
	for i, v := range sb {
		bv.Set(i, v)
	}
	xv := ctx.NewVector(m.N())
	ref, err := solver.BiCGStab(ctx, a, bv, xv, solver.Options{MaxIter: 40, Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, ranks := range []int{1, 2, 4, 8} {
		x, hist := rankSolve(t, norm, sb, ranks, 40, 1e-10)
		if res := norm.ResidualNorm(x, sb); res > 1e-8*stencil.Norm2(sb) {
			t.Errorf("ranks=%d: residual %g", ranks, res)
		}
		for i := range xe {
			if math.Abs(x[i]-xe[i]) > 1e-6*(1+math.Abs(xe[i])) {
				t.Fatalf("ranks=%d: x[%d] = %g, want %g", ranks, i, x[i], xe[i])
			}
		}
		// Residual histories track the sequential solve (different dot
		// summation orders allow tiny drift, amplified late in the solve).
		nCmp := min(len(hist), len(ref.History), 10)
		for i := 0; i < nCmp; i++ {
			if hist[i] == 0 && ref.History[i] == 0 {
				continue
			}
			if r := hist[i] / ref.History[i]; r > 1.5 || r < 0.67 {
				t.Errorf("ranks=%d iter %d: residual %g vs sequential %g", ranks, i, hist[i], ref.History[i])
			}
		}
	}
}

func TestParallelDeterministic(t *testing.T) {
	// The exact combine makes runs bit-reproducible regardless of
	// goroutine scheduling.
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	rng := rand.New(rand.NewSource(3))
	norm, _ := stencil.RandomDiagDominant(m, 1.5, rng).Normalize()
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, h1 := rankSolve(t, norm, b, 8, 15, 0)
	x2, h2 := rankSolve(t, norm, b, 8, 15, 0)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x[%d] differs across runs: %g vs %g", i, x1[i], x2[i])
		}
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("history[%d] differs: %g vs %g", i, h1[i], h2[i])
		}
	}
}

// TestParallelBiCGStabRankSweep is the determinism contract of the
// exact combine: the rank-parallel solve must produce bit-identical
// residual histories and solutions at every rank count. Run under
// -race this also proves the ranks' column ranges disjoint.
func TestParallelBiCGStabRankSweep(t *testing.T) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	norm, _ := stencil.ConvectionDiffusion(m, 0.2, [3]float64{1, -0.3, 0.2}, 0.25).Normalize()
	rng := rand.New(rand.NewSource(17))
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	refX, refHist := rankSolve(t, norm, b, 1, 25, 0)
	for _, ranks := range []int{2, 4, 8} {
		x, hist := rankSolve(t, norm, b, ranks, 25, 0)
		if len(hist) != len(refHist) {
			t.Fatalf("ranks=%d: %d residuals, ranks=1 has %d", ranks, len(hist), len(refHist))
		}
		for i := range refHist {
			if hist[i] != refHist[i] {
				t.Errorf("ranks=%d: residual %d = %.17g, ranks=1 has %.17g", ranks, i, hist[i], refHist[i])
			}
		}
		for i := range refX {
			if x[i] != refX[i] {
				t.Fatalf("ranks=%d: x[%d] = %.17g, ranks=1 has %.17g", ranks, i, x[i], refX[i])
			}
		}
	}
}

// TestParallelBiCGStabRepeatDeterministic re-runs the same decomposition
// several times: goroutine scheduling varies, results must not.
func TestParallelBiCGStabRepeatDeterministic(t *testing.T) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	norm, _ := stencil.ConvectionDiffusion(m, 0.15, [3]float64{0.7, 0.1, -0.4}, 0.3).Normalize()
	rng := rand.New(rand.NewSource(23))
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, ranks := range []int{4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			_, ref := rankSolve(t, norm, b, ranks, 15, 0)
			for rep := 0; rep < 3; rep++ {
				_, hist := rankSolve(t, norm, b, ranks, 15, 0)
				for i := range ref {
					if hist[i] != ref[i] {
						t.Fatalf("rep %d: residual %d = %.17g, first run had %.17g", rep, i, hist[i], ref[i])
					}
				}
			}
		})
	}
}

func TestJouleCalibration(t *testing.T) {
	// The timing model must hit the two published anchors.
	if err := cluster.Joule().Validate(0.1); err != nil {
		t.Error(err)
	}
}

func TestFig8Scaling600(t *testing.T) {
	pts := cluster.StrongScaling(cluster.Joule(), cluster.Fig8Mesh, cluster.PublishedCores)
	t0 := pts[0].Seconds
	tEnd := pts[len(pts)-1].Seconds
	t.Logf("600³: 1024 cores %.1f ms ... 16384 cores %.2f ms", t0*1e3, tEnd*1e3)
	if math.Abs(t0-75e-3)/75e-3 > 0.1 {
		t.Errorf("@1024 = %.1f ms, published 75 ms", t0*1e3)
	}
	if tEnd < 4e-3 || tEnd > 8e-3 {
		t.Errorf("@16384 = %.2f ms, published ~6 ms", tEnd*1e3)
	}
	// Monotone improvement but sub-linear: 16× cores buys < 16×.
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds >= pts[i-1].Seconds {
			t.Errorf("600³ should still scale at %d cores", pts[i].Cores)
		}
	}
	if sp := t0 / tEnd; sp >= 16 {
		t.Errorf("speedup %.1f should be sub-linear", sp)
	}
}

func TestFig7ScalingStalls370(t *testing.T) {
	// "The failure to scale beyond 8K cores on the smaller mesh."
	pts := cluster.StrongScaling(cluster.Joule(), cluster.Fig7Mesh, cluster.PublishedCores)
	var t8k, t16k float64
	for _, p := range pts {
		t.Logf("370³: %5d cores %.2f ms (mem %.2f, coll %.2f)",
			p.Cores, p.Seconds*1e3, p.Breakdown.Mem*1e3, p.Breakdown.Coll*1e3)
		switch p.Cores {
		case 8192:
			t8k = p.Seconds
		case 16384:
			t16k = p.Seconds
		}
	}
	if gain := t8k / t16k; gain > 1.3 {
		t.Errorf("370³ gains %.2f× from 8K→16K; paper says scaling fails beyond 8K", gain)
	}
	// The larger mesh must still be scaling over the same step.
	p6 := cluster.StrongScaling(cluster.Joule(), cluster.Fig8Mesh, []int{8192, 16384})
	if gain := p6[0].Seconds / p6[1].Seconds; gain < 1.3 {
		t.Errorf("600³ should still gain meaningfully 8K→16K, got %.2f×", gain)
	}
}

func TestCS1SpeedupVsCluster(t *testing.T) {
	// §V-A: the 16K-core Joule iteration is ~214× slower than the CS-1's
	// 28.1 µs (on a mesh with more than twice as many meshpoints).
	tJoule := cluster.Joule().IterationTime(cluster.Fig8Mesh, 16384).Total()
	ratio := tJoule / 28.1e-6
	t.Logf("Joule 600³ @16K: %.2f ms = %.0f× CS-1", tJoule*1e3, ratio)
	if ratio < 150 || ratio > 280 {
		t.Errorf("speedup ratio %.0f, published ~214", ratio)
	}
}

func TestBreakdownComposition(t *testing.T) {
	b := cluster.Joule().IterationTime(cluster.Fig8Mesh, 4096)
	if b.Mem <= 0 || b.Flop <= 0 || b.Halo <= 0 || b.Coll <= 0 {
		t.Fatalf("all components must be positive: %+v", b)
	}
	if b.Total() < math.Max(b.Mem, b.Flop) {
		t.Error("total below local work")
	}
	if b.Mem < b.Flop {
		t.Error("the solve should be memory-bound on Xeons (the paper's premise)")
	}
}

func min(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
