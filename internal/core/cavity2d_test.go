package core

import (
	"runtime"
	"testing"
	"time"
)

// TestCavity2DWSESmall runs the cavity-on-wafer experiment end to end
// at a small fabric on one shard and on four, and requires the full
// outcome — SIMPLE residuals, per-solve pressure residual histories, and
// the machine's architectural fingerprint — to be bit-identical.
func TestCavity2DWSESmall(t *testing.T) {
	seq, err := Cavity2DWSE(16, 2, 1, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := Cavity2DWSE(16, 2, 4, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if shd.Engine != "fastforward/4" {
		t.Fatalf("Workers = 4 ran on %q, want fastforward/4", shd.Engine)
	}
	compareCavityRuns(t, seq, shd)
	if seq.Residuals[len(seq.Residuals)-1].Mass >= seq.Residuals[0].Mass {
		t.Errorf("mass imbalance did not drop: %+v", seq.Residuals)
	}
	if seq.Cycles.Total() == 0 || seq.SolverIters == 0 {
		t.Errorf("no simulated solver work recorded: %+v", seq)
	}
}

// compareCavityRuns asserts bit-identity of two runs' observables.
func compareCavityRuns(t *testing.T, a, b Cavity2DRun) {
	t.Helper()
	for i := range a.Residuals {
		if a.Residuals[i] != b.Residuals[i] {
			t.Fatalf("SIMPLE residuals diverge at iter %d: %s %+v, %s %+v",
				i, a.Engine, a.Residuals[i], b.Engine, b.Residuals[i])
		}
	}
	if len(a.PressureResiduals) != len(b.PressureResiduals) {
		t.Fatalf("pressure solve counts differ: %d vs %d", len(a.PressureResiduals), len(b.PressureResiduals))
	}
	for s := range a.PressureResiduals {
		for k := range a.PressureResiduals[s] {
			if a.PressureResiduals[s][k] != b.PressureResiduals[s][k] {
				t.Fatalf("pressure solve %d residual %d diverges: %g vs %g",
					s, k, a.PressureResiduals[s][k], b.PressureResiduals[s][k])
			}
		}
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("cycle breakdowns diverge: %s %+v, %s %+v", a.Engine, a.Cycles, b.Engine, b.Cycles)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("machine fingerprints diverge: %s %#x, %s %#x", a.Engine, a.Fingerprint, b.Engine, b.Fingerprint)
	}
}

// settledGoroutines forces garbage collection until the goroutine count
// stops changing, so pools left behind by earlier tests (reclaimed
// asynchronously by their runtime cleanups) cannot skew a baseline.
func settledGoroutines() int {
	prev := -1
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// TestCavity2DWSEReleasesGoroutines pins the Close threading of the
// wse-backend cavity path (the one cmd/cavity, cmd/repro and
// examples/cavityflow drive): after Cavity2DWSE returns, the sharded
// engine's parked pool workers must be gone — the goroutine count
// returns to its pre-run baseline without waiting for the garbage
// collector.
func TestCavity2DWSEReleasesGoroutines(t *testing.T) {
	// Raise GOMAXPROCS so a sharded fabric starts its helpers under
	// GOMAXPROCS=1 too, on a multi-CPU host (engines cache the value at
	// construction, and never run more helpers than CPUs).
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	base := settledGoroutines()
	if _, err := Cavity2DWSE(8, 2, 4, 2, 100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	slack := base + 1
	for runtime.NumGoroutine() > slack && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > slack {
		t.Fatalf("goroutines did not return to baseline after the wse cavity run: %d, baseline %d — a machine was not Closed", g, base)
	}
}
