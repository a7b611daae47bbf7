package mfix

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

func TestTableIIPublishedTotals(t *testing.T) {
	rows := TableII()
	wantTotals := map[string]OpRange{
		"Initialization": {45, 64},
		"Momentum":       {79, 213},
		"Continuity":     {37, 81},
		"Field Update":   {4, 6},
	}
	for _, r := range rows {
		want, ok := wantTotals[r.Step]
		if !ok {
			t.Fatalf("unexpected row %q", r.Step)
		}
		if r.Total != want {
			t.Errorf("%s: total %v, published %v", r.Step, r.Total, want)
		}
		// The component sums reproduce the published totals to within the
		// paper's ±2-cycle rounding.
		s := r.Sum()
		if math.Abs(s.Min-r.Total.Min) > 2 || math.Abs(s.Max-r.Total.Max) > 2 {
			t.Errorf("%s: component sum %v vs published total %v", r.Step, s, r.Total)
		}
	}
}

func TestProjectCS1TimestepRate(t *testing.T) {
	// §VI-A: "we expect to achieve between 80 and 125 timesteps per
	// second" for 600³, 15 SIMPLE iterations.
	pr := ProjectCS1(perfmodel.PaperModel(), 600, 600, 600, PaperSimpleParams())
	t.Logf("steps/s: %.0f – %.0f (step %.1f–%.1f ms, solver %.0f cyc/z-pt, formation %.0f–%.0f)",
		pr.StepsPerSecond.Min, pr.StepsPerSecond.Max,
		pr.StepSeconds.Min*1e3, pr.StepSeconds.Max*1e3,
		pr.SolverCyclesPerZPoint, pr.FormationCyclesPerZPoint.Min, pr.FormationCyclesPerZPoint.Max)
	if pr.StepsPerSecond.Min < 70 || pr.StepsPerSecond.Min > 95 {
		t.Errorf("lower bound %.0f steps/s, paper says 80", pr.StepsPerSecond.Min)
	}
	if pr.StepsPerSecond.Max < 110 || pr.StepsPerSecond.Max > 140 {
		t.Errorf("upper bound %.0f steps/s, paper says 125", pr.StepsPerSecond.Max)
	}
}

func TestCS1Vs16KJouleMFIX(t *testing.T) {
	// §VI-A: "above 200 times faster than for MFiX runs on a 16,384-core
	// partition of the NETL Joule cluster."
	sp := PaperSimpleParams()
	joule := JouleTimestepSeconds(cluster.Joule(), cluster.Fig8Mesh, 16384, sp)
	pr := ProjectCS1(perfmodel.PaperModel(), 600, 600, 600, sp)
	mid := (pr.StepSeconds.Min + pr.StepSeconds.Max) / 2
	ratio := joule / mid
	t.Logf("Joule step %.2f s vs CS-1 %.1f ms: %.0f×", joule, mid*1e3, ratio)
	if ratio < 200 {
		t.Errorf("speedup %.0f×, paper says above 200×", ratio)
	}
}

func TestSolverItersPerStep(t *testing.T) {
	sp := PaperSimpleParams()
	// 15 × (3×5 + 20) = 525 solver iterations per timestep.
	if got := sp.SolverItersPerStep(); got != 525 {
		t.Errorf("solver iterations per step = %d, want 525", got)
	}
}

func TestCavityMassConservation(t *testing.T) {
	c := NewCavity(8, 100)
	res, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res[0].Mass, res[len(res)-1].Mass
	t.Logf("mass imbalance: %.3g -> %.3g", first, last)
	if last > first/3 {
		t.Errorf("mass imbalance did not drop: %g -> %g", first, last)
	}
	// The corrected field should be nearly divergence-free.
	if div := c.MassResidual(); div > 5e-4 {
		t.Errorf("post-correction divergence %g too large", div)
	}
}

func TestCavityConverges(t *testing.T) {
	c := NewCavity(8, 100)
	res, err := c.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	mom := res[len(res)-1].Momentum
	if mom > 0.02 {
		t.Errorf("velocity field still changing by %g after 40 SIMPLE iterations", mom)
	}
}

func TestCavityFlowStructure(t *testing.T) {
	// Physics checks at Re=100 on a coarse grid: the lid drags fluid in
	// +x near the top, and the return flow makes u negative in the lower
	// half of the vertical centreline (Ghia et al. report a minimum of
	// about −0.21 at fine resolution).
	c := NewCavity(10, 100)
	if _, err := c.Run(60); err != nil {
		t.Fatal(err)
	}
	prof := c.CenterlineU()
	top := prof[len(prof)-1]
	if top < 0.1 {
		t.Errorf("u near lid = %g, expected strongly positive", top)
	}
	minU := 0.0
	for _, u := range prof[:len(prof)/2] {
		minU = math.Min(minU, u)
	}
	if minU > -0.02 || minU < -0.45 {
		t.Errorf("return-flow minimum %g outside the plausible band (-0.45, -0.02)", minU)
	}
	// Monotone drag: velocity magnitude increases toward the lid across
	// the top half.
	if prof[len(prof)-1] < prof[len(prof)-2] {
		t.Error("u should increase toward the moving lid")
	}
}

func TestCavitySymmetryInZ(t *testing.T) {
	// The problem is symmetric in z about the midplane, so u must be too.
	c := NewCavity(8, 100)
	if _, err := c.Run(25); err != nil {
		t.Fatal(err)
	}
	n := c.N
	// Finite-precision dot products are not symmetry-preserving, so the
	// mirror match is approximate and drifts slowly with iteration count.
	for j := 0; j < n; j++ {
		for k := 0; k < n/2; k++ {
			a := c.V(0, n/2, j, k)
			b := c.V(0, n/2, j, n-1-k)
			if math.Abs(a-b) > 1e-3 {
				t.Fatalf("z-symmetry broken at j=%d k=%d: %g vs %g", j, k, a, b)
			}
		}
	}
}

// MassResidual recomputes the current ∞-norm mass imbalance.
func (c *Cavity) MassResidual() float64 {
	maxImb := 0.0
	c.forEach([3]int{}, func(q [3]int) { maxImb = math.Max(maxImb, math.Abs(c.imbalance(q))) })
	return maxImb
}

// Sum returns the straight sum of the component ranges. The published
// Total column differs from the component sums by up to two cycles in the
// minimum (the paper rounds its per-operation cycle estimates); tests
// assert the published totals and the ≤2-cycle discrepancy.
func (s StepBudget) Sum() OpRange {
	return OpRange{
		Min: s.Merge.Min + s.FLOP.Min + s.Sqrt.Min + s.Div.Min + s.Trans.Min,
		Max: s.Merge.Max + s.FLOP.Max + s.Sqrt.Max + s.Div.Max + s.Trans.Max,
	}
}
