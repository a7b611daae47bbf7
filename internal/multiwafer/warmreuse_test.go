package multiwafer

import (
	"math"
	"testing"

	"repro/internal/kernels"
)

// TestClusterWarmReuseBitIdentical pins the machine-cache contract for
// the multiwafer backend: a cluster that already ran one solve, handed
// a new operator via LoadCoeff, produces exactly what a freshly built
// cluster produces — solution and history bits, every cycle count and
// the AllReduce drift. The halo SpMV's fixed program order and the
// exact two-level combine keep x and the history; LoadCoeff's
// arbitration restart on every wafer keeps the drift, which follows the
// rotation counters. An operator on another mesh is refused and costs
// the cluster nothing.
func TestClusterWarmReuseBitIdentical(t *testing.T) {
	opA, _, b, _ := testProblem(t, 6, 6, 8, 3)
	opB, _, _, _ := testProblem(t, 6, 6, 8, 17)
	grid := Topology{W: 2, H: 1}
	const iters = 4

	refX, refSt := solveOn(t, grid, 1, opB, b, iters)

	warm, err := New(Config{Grid: grid, Workers: 1}, opA)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, _, err := warm.Solve(b, kernels.WSEOptions{MaxIter: 2}); err != nil {
		t.Fatal(err)
	}
	if err := warm.LoadCoeff(opB); err != nil {
		t.Fatal(err)
	}
	solveAsCold := func(when string) {
		t.Helper()
		gotX, gotSt, err := warm.Solve(b, kernels.WSEOptions{MaxIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		if len(gotSt.History) != len(refSt.History) {
			t.Fatalf("%s: %d history entries, cold has %d", when, len(gotSt.History), len(refSt.History))
		}
		for i := range refSt.History {
			if math.Float64bits(gotSt.History[i]) != math.Float64bits(refSt.History[i]) {
				t.Fatalf("%s: history[%d] = %.17g, cold cluster has %.17g",
					when, i, gotSt.History[i], refSt.History[i])
			}
		}
		for i := range refX {
			if gotX[i] != refX[i] {
				t.Fatalf("%s: x[%d] = %v, cold cluster has %v", when, i, gotX[i], refX[i])
			}
		}
		if gotSt.Cycles != refSt.Cycles || gotSt.SetupCycles != refSt.SetupCycles {
			t.Errorf("%s: cycles %+v + setup %d, cold cluster %+v + setup %d",
				when, gotSt.Cycles, gotSt.SetupCycles, refSt.Cycles, refSt.SetupCycles)
		}
		if math.Float64bits(gotSt.MaxARDrift) != math.Float64bits(refSt.MaxARDrift) {
			t.Errorf("%s: max AllReduce drift %g, cold cluster %g", when, gotSt.MaxARDrift, refSt.MaxARDrift)
		}
	}
	solveAsCold("after reuse")

	opWrong, _, _, _ := testProblem(t, 6, 6, 10, 3)
	if err := warm.LoadCoeff(opWrong); err == nil {
		t.Fatal("LoadCoeff accepted an operator for a different mesh")
	}
	solveAsCold("after a refused reload")
}
