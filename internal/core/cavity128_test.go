package core

import (
	"math"
	"testing"
)

// TestCavity2DFabric128 is the acceptance run for the cavity-on-wafer
// milestone: the Table II lid-driven cavity (256² cells in 2×2 blocks)
// on a 128×128 fabric, bit-identical — SIMPLE residuals, pressure
// residual histories, cycle counts and the machine's architectural
// fingerprint — on fast-forward's default shards (the sequential
// engine, every cycle simulated, under -wse.engine=seq) and on eight. Two SIMPLE sweeps keep the
// run at CI scale (each steps the 16 384-tile machine through ~22k
// simulated cycles of solver work).
//
// Skipped in -short mode and under the race detector (see raceEnabled);
// CI executes it in the dedicated non-race paper-scale step.
func TestCavity2DFabric128(t *testing.T) {
	if testing.Short() {
		t.Skip("128×128 cavity cycle simulation: skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("128×128 cavity cycle simulation: skipped under the race detector")
	}

	const n, b, iters = 256, 2, 2
	seq, err := Cavity2DWSE(n, b, 1, iters, 100)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := Cavity2DWSE(n, b, 8, iters, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seq: residuals %+v, %d solver iters, %d cycles, fp %#x",
		seq.Residuals, seq.SolverIters, seq.Cycles.Total(), seq.Fingerprint)
	t.Logf("%s: residuals %+v, %d solver iters, %d cycles, fp %#x",
		shd.Engine, shd.Residuals, shd.SolverIters, shd.Cycles.Total(), shd.Fingerprint)
	t.Logf("measured %.4f cycles/meshpoint per solver iteration (allreduce %d of %d cycles)",
		seq.CyclesPerPoint(), seq.Cycles.AllReduce, seq.Cycles.Total())

	if shd.Engine != "fastforward/8" {
		t.Fatalf("Workers = 8 ran on %q, want fastforward/8", shd.Engine)
	}
	compareCavityRuns(t, seq, shd)

	// The sequential run's bits, recorded before SIMPLE became one cavity
	// over D ∈ {2, 3}.
	const wantFP = 0x7e607dd242d237ec
	if seq.Fingerprint != wantFP {
		t.Errorf("fingerprint %#x, want %#x", seq.Fingerprint, uint64(wantFP))
	}
	wantRes := [][2]uint64{{0x3f56457c8afb6bbb, 0x3ff0000000000000}, {0x3f49eca99977ff34, 0x3fd724e15f64b511}}
	for i, r := range seq.Residuals {
		if got := [2]uint64{math.Float64bits(r.Mass), math.Float64bits(r.Momentum)}; got != wantRes[i] {
			t.Errorf("sweep %d: residual bits %#x, want %#x", i, got, wantRes[i])
		}
	}

	// Physics at scale: the SIMPLE iteration must reduce the mass
	// imbalance from the first sweep.
	first, last := seq.Residuals[0].Mass, seq.Residuals[iters-1].Mass
	if last >= first {
		t.Errorf("mass imbalance did not drop at 128×128: %g -> %g", first, last)
	}
	// The solver must have run wafer-side work every sweep: 20 pressure
	// iterations per SIMPLE iteration.
	if want := iters * 20; seq.SolverIters != want {
		t.Errorf("solver iterations = %d, want %d", seq.SolverIters, want)
	}
}
