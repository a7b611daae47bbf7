package mfix

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/wse"
)

func TestCavity2DMassConservation(t *testing.T) {
	c := NewCavity2D(8, 100)
	res, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res[0].Mass, res[len(res)-1].Mass
	t.Logf("mass imbalance: %.3g -> %.3g", first, last)
	if last > first/3 {
		t.Errorf("mass imbalance did not drop: %g -> %g", first, last)
	}
	if div := c.MassResidual(); div > 5e-4 {
		t.Errorf("post-correction divergence %g too large", div)
	}
}

func TestCavity2DConverges(t *testing.T) {
	c := NewCavity2D(8, 100)
	res, err := c.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if mom := res[len(res)-1].Momentum; mom > 0.02 {
		t.Errorf("velocity field still changing by %g after 40 SIMPLE iterations", mom)
	}
}

// TestCavity2DCenterlineMatches3DMidplane validates the 2D physics
// against the existing 3D cavity: at matching Re and N the 2D
// centreline u-profile must track the 3D solver's mid-plane profile —
// the flows differ only by the 3D cavity's spanwise confinement, a
// small effect on a coarse grid — and show the standard structure
// (strong positive u under the lid, negative return flow below).
func TestCavity2DCenterlineMatches3DMidplane(t *testing.T) {
	const n, re = 12, 100.0
	c2 := NewCavity2D(n, re)
	if _, err := c2.Run(50); err != nil {
		t.Fatal(err)
	}
	c3 := NewCavity(n, re)
	if _, err := c3.Run(50); err != nil {
		t.Fatal(err)
	}
	p2, p3 := c2.CenterlineU(), c3.CenterlineU()
	if p2[n-1] < 0.5 {
		t.Errorf("2D u under the lid = %g, expected strongly positive", p2[n-1])
	}
	min2 := 0.0
	for _, u := range p2[:n/2] {
		min2 = math.Min(min2, u)
	}
	if min2 > -0.02 || min2 < -0.45 {
		t.Errorf("2D return-flow minimum %g outside the plausible band (-0.45, -0.02)", min2)
	}
	for j := range p2 {
		if d := math.Abs(p2[j] - p3[j]); d > 0.08 {
			t.Errorf("row %d: 2D centreline u %.4f vs 3D mid-plane %.4f (|Δ| = %.3f)", j, p2[j], p3[j], d)
		}
	}
}

// TestCavity2DWaferBackendTracksHost runs the same cavity with the
// pressure solve on the cycle-simulated wafer (fp16 block-halo
// BiCGStab) and on the host (float64): the SIMPLE convergence must
// track closely over the first sweeps — fp16 rounding compounds slowly
// through the outer iteration, it must not change the physics.
func TestCavity2DWaferBackendTracksHost(t *testing.T) {
	const n, b, iters = 8, 2, 6
	mach := wse.New(wse.CS1(n/b, n/b))
	defer mach.Close()
	cw := NewCavity2D(n, 100)
	cw.Pressure = kernels.NewWafer2DBackend(mach, b)
	rw, err := cw.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewCavity2D(n, 100)
	rh, err := ch.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rw {
		ratio := rw[i].Mass / rh[i].Mass
		t.Logf("iter %d: wafer mass %.4e, host %.4e (ratio %.3f)", i, rw[i].Mass, rh[i].Mass, ratio)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("iter %d: wafer mass residual %g diverged from host %g", i, rw[i].Mass, rh[i].Mass)
		}
	}
	if rw[iters-1].Mass > rw[0].Mass/3 {
		t.Errorf("wafer-backend mass imbalance did not drop: %g -> %g", rw[0].Mass, rw[iters-1].Mass)
	}
	be := cw.Pressure.(*kernels.WaferBackend)
	if be.Solves != iters || be.Iterations != iters*cw.PressureIters {
		t.Errorf("instrumentation: %d solves / %d iterations, want %d / %d",
			be.Solves, be.Iterations, iters, iters*cw.PressureIters)
	}
	if be.Cycles.Total() == 0 {
		t.Error("no cycles measured on the wafer backend")
	}
}

// TestCavity2DWaferShardedIdentical is the engine-equivalence contract
// at the application level: the full SIMPLE evolution with the wafer
// pressure backend — residuals, per-solve pressure residual histories,
// and the machine's final architectural fingerprint — must be
// bit-identical between the sequential and sharded engines.
func TestCavity2DWaferShardedIdentical(t *testing.T) {
	const n, b, iters = 8, 2, 4
	run := func(workers int) ([]Residuals, [][]float64, uint64, string) {
		cfg := wse.CS1(n/b, n/b)
		cfg.Workers = workers
		mach := wse.New(cfg)
		defer mach.Close()
		c := NewCavity2D(n, 100)
		c.Pressure = kernels.NewWafer2DBackend(mach, b)
		c.RecordPressureHistory = true
		res, err := c.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return res, c.PressureResiduals, mach.Fingerprint(), mach.Fab.StepperName()
	}
	ra, ha, fa, ea := run(1)
	rb, hb, fb, eb := run(4)
	if ea == eb {
		t.Fatalf("engine selection broken: both %q", ea)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("SIMPLE residuals diverge at iter %d: seq %+v, %s %+v", i, ra[i], eb, rb[i])
		}
	}
	if len(ha) != len(hb) {
		t.Fatalf("pressure history counts differ: %d vs %d", len(ha), len(hb))
	}
	for s := range ha {
		for k := range ha[s] {
			if ha[s][k] != hb[s][k] {
				t.Fatalf("pressure solve %d residual %d diverges: %g vs %g", s, k, ha[s][k], hb[s][k])
			}
		}
	}
	if fa != fb {
		t.Fatalf("machine fingerprints diverge: seq %#x, %s %#x", fa, eb, fb)
	}
}
