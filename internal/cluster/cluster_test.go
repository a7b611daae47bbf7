package cluster_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
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
