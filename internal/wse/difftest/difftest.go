// Package difftest is the differential test layer over the wse
// stepping engines. Every engine — sequential (the reference),
// sharded, batched, and fast-forward — promises bit- and
// cycle-identical architectural state, and this package checks the
// promise the strongest way the simulator allows: one machine per
// engine runs the same workload and the complete architectural
// fingerprint (Machine.Fingerprint: scheduler flags, pcs, thread
// slots, stream buffers, tile memories, fabric queues and rotations)
// is compared after every single cycle, so a divergence is caught at
// the exact cycle it first appears rather than smeared into a final
// wrong answer.
//
// The fast-forward engine steps through the batched path here — its
// analytic phase jumps only fire inside Program3D.Run and
// kernels.AllReduce.Run, which the lockstep harness deliberately
// bypasses by arming programs (Begin, for the AllReduce) and stepping
// cycle by cycle. The jumps themselves are differentially tested at
// their only observable boundary (RunEndState): same results, same
// total cycles, same fingerprint as a sequential Run.
package difftest

import (
	"testing"

	"repro/internal/wse"
)

// Instance is one engine's machine under the harness plus the
// host-side driver of its workload.
type Instance struct {
	M *wse.Machine
	// Tick runs the workload's host actors for the current cycle
	// (arming retries, ramp injection and drains) and reports whether
	// the workload has completed. The harness calls it once per cycle
	// and steps the machine after every non-final Tick, the same
	// Tick/Step cadence the kernels' own run loops use.
	Tick func() bool
}

// Engines is the full engine matrix the lockstep tables run.
var Engines = []wse.Engine{
	wse.EngineSequential,
	wse.EngineSharded,
	wse.EngineBatched,
	wse.EngineFastForward,
}

// Lockstep builds one Instance per engine and drives them all in
// per-cycle fingerprint lockstep until every workload reports
// completion on the same cycle. Any divergence — fingerprint,
// completion cycle, or final idleness — fails the test at the first
// cycle it shows.
func Lockstep(t *testing.T, maxCycles int64, build func(e wse.Engine) *Instance) {
	t.Helper()
	insts := make([]*Instance, len(Engines))
	for i, e := range Engines {
		insts[i] = build(e)
		defer insts[i].M.Close()
	}
	compare := func(when string) {
		ref := insts[0].M.Fingerprint()
		for i := 1; i < len(insts); i++ {
			if fp := insts[i].M.Fingerprint(); fp != ref {
				t.Fatalf("cycle %d (%s): %v fingerprint %#x, %v fingerprint %#x",
					insts[0].M.Cycle(), when, Engines[0], ref, Engines[i], fp)
			}
		}
	}
	compare("before first cycle")
	for {
		done := insts[0].Tick()
		for i := 1; i < len(insts); i++ {
			if d := insts[i].Tick(); d != done {
				t.Fatalf("cycle %d: completion diverges: %v done=%v, %v done=%v",
					insts[0].M.Cycle(), Engines[0], done, Engines[i], d)
			}
		}
		if done {
			break
		}
		if insts[0].M.Cycle() >= maxCycles {
			t.Fatalf("workload did not complete in %d cycles", maxCycles)
		}
		for _, in := range insts {
			in.M.Step()
		}
		compare("after step")
	}
	compare("at completion")
	if insts[0].M.Cycle() == 0 {
		t.Fatal("workload completed without stepping a single cycle — the builder armed nothing")
	}
	for i, in := range insts {
		if !in.M.AllIdle() {
			t.Errorf("%v machine not idle at completion", Engines[i])
		}
	}
}
