package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

func testProblem(seed int64) (Problem, []float64) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	op := stencil.MomentumLike(m, 0.05, [3]float64{1, 0.3, -0.2}, 0.1, 1, 0.1)
	rng := rand.New(rand.NewSource(seed))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	return NewProblem(op, xe)
}

func TestSolveAllBackendsAgree(t *testing.T) {
	p, xe := testProblem(5)
	for _, tc := range []struct {
		name string
		opts Options
		tol  float64 // solution accuracy vs xe
	}{
		{"local/f64", Options{Backend: Local, MaxIter: 60, Tol: 1e-10}, 1e-7},
		{"local/f32", Options{Backend: Local, Local: LocalOptions{Precision: F32}, MaxIter: 60, Tol: 1e-6}, 1e-4},
		{"local/mixed", Options{Backend: Local, Local: LocalOptions{Precision: Mixed}, MaxIter: 30, Tol: 1e-3}, 0.05},
		{"wafer", Options{Backend: Wafer, MaxIter: 30, Tol: 1e-3}, 0.05},
	} {
		res, err := Solve(p, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		worst := 0.0
		for i := range xe {
			worst = math.Max(worst, math.Abs(res.X[i]-xe[i]))
		}
		if worst > tc.tol {
			t.Errorf("%s: worst-case error %g > %g", tc.name, worst, tc.tol)
		}
		if res.TrueResidual > 0.02 {
			t.Errorf("%s: true residual %g", tc.name, res.TrueResidual)
		}
	}
}

// TestWaferBackendReportsCycles runs the four simulated paths through
// core's pipeline — Listing 1, the compiled star, the 2D block-halo
// program and a 2×1 wafer grid — and pins the telemetry header each
// reports, that its cycle breakdown is non-empty, and the name of the
// backend each path runs on.
func TestWaferBackendReportsCycles(t *testing.T) {
	p, _ := testProblem(9)
	grid := multiwafer.Topology{W: 2, H: 1}
	m2 := stencil.Mesh2D{NX: 8, NY: 8}
	u0 := make([]float64, m2.NX*m2.NY)
	for i := range u0 {
		u0[i] = float64(i%7) + 1
	}
	machine := func(w, h int) *wse.Machine { return wse.New(wse.CS1(w, h)) }
	for _, tc := range []struct {
		name    string
		solve   func() (Result, error)
		backend func() solver.Backend
		kind    string // Telemetry.Backend
		wafers  int
		beName  string // solver.Backend.Name
	}{
		{"listing1", func() (Result, error) { return Solve(p, Options{Backend: Wafer, MaxIter: 2}) },
			func() solver.Backend { return kernels.NewWafer3DBackend(machine(4, 4)) }, "wafer", 1, "wse"},
		{"star", func() (Result, error) {
			return SolveStar(StarProblem{Op: stencil.FromOp7(p.Op), B: p.B}, Options{Backend: Wafer, MaxIter: 2})
		}, func() solver.Backend { return kernels.NewWaferStarBackend(machine(4, 4), stencilc.Spec7Point()) }, "wafer", 1, "wse"},
		{"2d", func() (Result, error) {
			steps, err := RunHeat2D(nil, m2, 0.5, u0, 1, 2, Options{Backend: Wafer, MaxIter: 2})
			if err != nil {
				return Result{}, err
			}
			return steps[0].Solve, nil
		}, func() solver.Backend { return kernels.NewWafer2DBackend(machine(4, 4), 2) }, "wafer", 1, "wse"},
		{"multiwafer/2x1", func() (Result, error) {
			return Solve(p, Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Grid: grid}, MaxIter: 2})
		}, func() solver.Backend { return multiwafer.NewBackend(grid) }, "multiwafer", 2, "multiwafer/2x1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			tel := res.Telemetry
			if !tel.Simulated || tel.Backend != tc.kind || tel.Wafers != tc.wafers {
				t.Fatalf("telemetry header %q/%v/%d, want %q/true/%d: %+v", tel.Backend, tel.Simulated, tel.Wafers, tc.kind, tc.wafers, tel)
			}
			if tel.PerIteration.Total() == 0 || tel.Cycles.Total() == 0 {
				t.Fatal("a simulated backend must report a cycle breakdown")
			}
			if multi := tc.wafers > 1; multi != (tel.Cycles.EdgeIO != 0) || multi != (tel.Cycles.Combine != 0) {
				t.Fatalf("edge I/O %d and combine %d cycles on %d wafers", tel.Cycles.EdgeIO, tel.Cycles.Combine, tc.wafers)
			}
			be := tc.backend()
			defer release(be)
			if got := be.Name(); got != tc.beName {
				t.Fatalf("backend name %q, want %q", got, tc.beName)
			}
		})
	}
}

func TestExperimentReports(t *testing.T) {
	for name, fn := range map[string]func() string{
		"table1":    Table1Report,
		"headline":  HeadlineReport,
		"allreduce": AllReduceReport,
		"scaling":   ScalingReport,
		"table2":    Table2Report,
		"spmv2d":    SpMV2DReport,
		"fig1":      Fig1Report,
		"memory":    MemoryReport,
		"routing":   RoutingReport,
	} {
		out := fn()
		if len(out) < 40 {
			t.Errorf("%s report suspiciously short:\n%s", name, out)
		}
		if strings.Contains(out, "DOES NOT FIT") || strings.Contains(out, "failed") {
			t.Errorf("%s report indicates failure:\n%s", name, out)
		}
	}
	if out := Fig9Report(6, 12, 6, 10); len(out) < 100 {
		t.Errorf("fig9 report too short:\n%s", out)
	}
}

func TestTable1ReportValues(t *testing.T) {
	// Compare rows with whitespace collapsed, so formatting changes do
	// not break the value check.
	squash := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	out := squash(Table1Report())
	for _, want := range []string{
		"Matvec (x2) 12 12 | 12 12 0",
		"Dot (x4) 4 4 | 0 4 4",
		"AXPY (x6) 6 6 | 6 6 0",
		"Total 22 22 | 18 22 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I row missing %q in:\n%s", want, out)
		}
	}
}

func TestRoutingReportClean(t *testing.T) {
	if out := RoutingReport(); !strings.Contains(out, "0 color clashes") {
		t.Errorf("routing report: %s", out)
	}
}

func TestFig9ExperimentShape(t *testing.T) {
	series := Fig9Experiment(8, 16, 8, 15)
	f32h := series[0].History
	mxh := series[1].History
	if f32h[len(f32h)-1] > 1e-5 {
		t.Errorf("fp32 final residual %g", f32h[len(f32h)-1])
	}
	final := mxh[len(mxh)-1]
	if final < 1e-4 || final > 1e-1 {
		t.Errorf("mixed plateau %g outside [1e-4, 1e-1]", final)
	}
}
