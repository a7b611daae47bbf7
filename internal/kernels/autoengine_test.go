package kernels

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/stencil"
	"repro/internal/wse"
)

// TestAutoEngineListing1Work pins what the default engine does on a
// Listing 1 solve: two iterations on an EngineAuto machine, which
// resolves to fast-forward, jump every dot and vector update, every
// row phase of an even-width AllReduce and every broadcast, and step
// the rest through the reference interpreter. Against the same solve on
// an EngineSequential machine the solution, cycle count, fingerprint
// and receive-side counters are equal and only the core steps and
// instruction calls drop, both by the steps the jumped phases skip.
// Under a -wse.engine override EngineAuto is no longer fast-forward;
// the test then holds only the equality.
func TestAutoEngineListing1Work(t *testing.T) {
	for _, tc := range []struct {
		nx, ny                 int
		vecJumped, vecStepped  int
		rowSkips, rowStepped   int
		bcastSkips, bcastStepd int
	}{
		{8, 8, 21, 0, 9, 0, 9, 0},
		{7, 5, 21, 0, 0, 9, 9, 0}, // odd width: the row phase contends and is stepped
	} {
		t.Run(fmt.Sprintf("%dx%dx8", tc.nx, tc.ny), func(t *testing.T) {
			mesh := stencil.Mesh{NX: tc.nx, NY: tc.ny, NZ: 8}
			norm, _ := stencil.MomentumLike(mesh, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05).Normalize()
			op := stencil.NewOp7Half(norm)
			b := testRHS(mesh, 13)
			run := func(eng wse.Engine) (*wse.Machine, string) {
				m := wse.New(wse.Config{FabricW: mesh.NX, FabricH: mesh.NY, Engine: eng})
				s, err := NewBiCGStabWSE(m, op)
				if err != nil {
					t.Fatal(err)
				}
				x, _, err := s.Solve(b, WSEOptions{MaxIter: 2, Tol: 0})
				if err != nil {
					t.Fatal(err)
				}
				return m, fmt.Sprint(x)
			}
			seq, xSeq := run(wse.EngineSequential)
			defer seq.Close()
			auto, xAuto := run(wse.EngineAuto)
			defer auto.Close()

			if xAuto != xSeq || auto.Cycle() != seq.Cycle() || auto.Fingerprint() != seq.Fingerprint() {
				t.Fatalf("%s: cycle %d, fingerprint %#x; sequential has %d, %#x (solutions equal: %v)",
					auto.EngineName(), auto.Cycle(), auto.Fingerprint(), seq.Cycle(), seq.Fingerprint(), xAuto == xSeq)
			}
			if override := flag.Lookup("wse.engine").Value.String(); override != "" {
				t.Logf("EngineAuto resolves to %s under -wse.engine=%s; work counts not checked", auto.EngineName(), override)
				return
			}
			if auto.EngineName() != wse.EngineFastForward.String() {
				t.Fatalf("EngineAuto resolved to %s, want %s", auto.EngineName(), wse.EngineFastForward)
			}
			a, q := auto.IssueStats(), seq.IssueStats()
			t.Logf("core steps %d -> %d, instruction calls %d -> %d", q.CoreSteps, a.CoreSteps, q.InstrCalls, a.InstrCalls)
			// A jumped phase's step is one core step issuing one
			// instruction, so the two counts drop by the same amount.
			if drop := q.CoreSteps - a.CoreSteps; drop <= 0 || q.InstrCalls-a.InstrCalls != drop {
				t.Errorf("core steps %d, instruction calls %d; sequential has %d, %d — want both lower by the same amount",
					a.CoreSteps, a.InstrCalls, q.CoreSteps, q.InstrCalls)
			}
			if a.RxProbes != q.RxProbes || a.RxWords != q.RxWords || a.RxStalls != q.RxStalls {
				t.Errorf("rx probes/words/stalls %d/%d/%d; sequential has %d/%d/%d",
					a.RxProbes, a.RxWords, a.RxStalls, q.RxProbes, q.RxWords, q.RxStalls)
			}
			if v := auto.Phases(wse.PhaseVector); v.Jumped != tc.vecJumped || v.Stepped != tc.vecStepped {
				t.Errorf("vector phases: %d jumped, %d stepped; want %d and %d", v.Jumped, v.Stepped, tc.vecJumped, tc.vecStepped)
			}
			if got, want := arRecord(auto), [4]int{tc.rowSkips, tc.rowStepped, tc.bcastSkips, tc.bcastStepd}; got != want {
				t.Errorf("AllReduce row skipped/stepped, broadcast skipped/stepped %v; want %v", got, want)
			}
		})
	}
}
