package core

import (
	"math"
	"testing"

	"repro/internal/kernels"
)

// TestCavity2DFabric128 is the acceptance run for the cavity-on-wafer
// milestone: the Table II lid-driven cavity (256² cells in 2×2 blocks)
// on a 128×128 fabric, pinned bit for bit — SIMPLE residuals, pressure
// residual histories, the cycle account and the machine's architectural
// fingerprint. Its one machine is built on EngineAuto: fast-forward on
// its default shards, or the sequential engine, every cycle simulated,
// under -wse.engine=seq. CI runs it both ways, so both engines meet the
// same pins. Two SIMPLE sweeps keep the run at CI scale (each steps the
// 16 384-tile machine through ~22k simulated cycles of solver work).
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
	run, err := Cavity2DWSE(n, b, 1, iters, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: residuals %+v, %d solver iters, %d cycles, fp %#x",
		run.Engine, run.Residuals, run.SolverIters, run.Cycles.Total(), run.Fingerprint)
	t.Logf("measured %.4f cycles/meshpoint per solver iteration (allreduce %d of %d cycles)",
		run.CyclesPerPoint(), run.Cycles.AllReduce, run.Cycles.Total())

	// Recorded under both engines, which agree; it includes the routers'
	// rotation counters, which each pressure solve's reload restarts
	// (fabric.RestartArbitration). The residual bits below are the
	// sequential engine's, recorded before SIMPLE became one cavity over
	// D ∈ {2, 3}.
	const wantFP = 0xbaa13a9524fb9f23
	if run.Fingerprint != wantFP {
		t.Errorf("fingerprint %#x, want %#x", run.Fingerprint, uint64(wantFP))
	}
	wantRes := [][2]uint64{{0x3f56457c8afb6bbb, 0x3ff0000000000000}, {0x3f49eca99977ff34, 0x3fd724e15f64b511}}
	for i, r := range run.Residuals {
		if got := [2]uint64{math.Float64bits(r.Mass), math.Float64bits(r.Momentum)}; got != wantRes[i] {
			t.Errorf("sweep %d: residual bits %#x, want %#x", i, got, wantRes[i])
		}
	}

	// Recorded under both engines, which agree: the cycle account and an
	// FNV-1a digest of every pressure solve's residual history.
	if want := (kernels.PhaseCycles{SpMV: 1520, Dot: 320, AllReduce: 41760, Axpy: 240}); run.Cycles != want {
		t.Errorf("cycle account %+v, want %+v", run.Cycles, want)
	}
	digest := uint64(14695981039346656037)
	for _, solve := range run.PressureResiduals {
		for _, r := range solve {
			for v, i := math.Float64bits(r), 0; i < 8; v, i = v>>8, i+1 {
				digest = (digest ^ v&0xff) * 1099511628211
			}
		}
	}
	if len(run.PressureResiduals) != iters || digest != 0xdaff94083aa65cdb {
		t.Errorf("%d pressure solves with residual digest %#x, want %d and 0xdaff94083aa65cdb",
			len(run.PressureResiduals), digest, iters)
	}

	// Physics at scale: the SIMPLE iteration must reduce the mass
	// imbalance from the first sweep.
	first, last := run.Residuals[0].Mass, run.Residuals[iters-1].Mass
	if last >= first {
		t.Errorf("mass imbalance did not drop at 128×128: %g -> %g", first, last)
	}
	// The solver must have run wafer-side work every sweep: 20 pressure
	// iterations per SIMPLE iteration.
	if want := iters * 20; run.SolverIters != want {
		t.Errorf("solver iterations = %d, want %d", run.SolverIters, want)
	}
}
