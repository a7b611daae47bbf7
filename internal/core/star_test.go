package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
)

func seismicProblem(t *testing.T, m stencil.Mesh, s float64, seed int64) (StarProblem, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	return NewStarProblem(stencil.Seismic25(m, s), xe)
}

func TestSolveStarBackends(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 6}
	p, xe := seismicProblem(t, m, 0.08, 5)
	for _, o := range []Options{
		{Backend: Local, MaxIter: 60, Tol: 1e-6},
		{Backend: Wafer, MaxIter: 60, Tol: 1e-3},
	} {
		res, err := SolveStar(p, o)
		if err != nil {
			t.Fatalf("%s: %v", o.Backend, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge: %+v", o.Backend, res)
		}
		if res.TrueResidual > 5e-3 {
			t.Fatalf("%s: true residual %g", o.Backend, res.TrueResidual)
		}
		tol := 1e-4
		if o.Backend == Wafer {
			tol = 5e-2
		}
		for i := range xe {
			if math.Abs(res.X[i]-xe[i]) > tol {
				t.Fatalf("%s: x[%d] = %g, want %g", o.Backend, i, res.X[i], xe[i])
			}
		}
		if o.Backend == Wafer && !res.Telemetry.Simulated {
			t.Fatal("wafer telemetry not marked simulated")
		}
	}
}

func TestSolveStarRejections(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 4}
	p, _ := seismicProblem(t, m, 0.05, 7)
	var oe *OptionError
	if _, err := SolveStar(p, Options{Backend: Cluster}); !errors.As(err, &oe) {
		t.Fatalf("cluster star solve: %v, want *OptionError", err)
	}
	if _, err := SolveStar(p, Options{Backend: Local, Local: LocalOptions{Precision: Mixed}}); !errors.As(err, &oe) {
		t.Fatalf("mixed-precision host star solve: %v, want *OptionError", err)
	}
	// A periodic operator runs on the host but is not wafer-lowerable:
	// the compiler's typed error must surface, not a reference panic.
	pp := p
	pp.Op = stencil.Heat3D(m, 0.2, stencil.Periodic)
	var ue *stencilc.UnsupportedError
	if _, err := SolveStar(pp, Options{Backend: Wafer, MaxIter: 5}); !errors.As(err, &ue) {
		t.Fatalf("periodic wafer star solve: %v, want *stencilc.UnsupportedError", err)
	}
	if _, err := SolveStar(pp, Options{Backend: Local, MaxIter: 40, Tol: 1e-6}); err != nil {
		t.Fatalf("periodic host star solve: %v", err)
	}
}

func TestRunHeat3D(t *testing.T) {
	m := stencil.Mesh{NX: 3, NY: 3, NZ: 4}
	rng := rand.New(rand.NewSource(11))
	u0 := make([]float64, m.N())
	for i := range u0 {
		u0[i] = rng.Float64()
	}
	for _, o := range []Options{
		{Backend: Local, MaxIter: 80, Tol: 1e-8},
		{Backend: Wafer, MaxIter: 80, Tol: 1e-4},
	} {
		steps, err := RunHeat3D(nil, m, 0.2, stencil.Dirichlet, u0, 3, o)
		if err != nil {
			t.Fatalf("%s: %v", o.Backend, err)
		}
		prev := sumSq(u0)
		for i, s := range steps {
			if s.Energy >= prev {
				t.Fatalf("%s: step %d energy %g did not decay from %g", o.Backend, i+1, s.Energy, prev)
			}
			prev = s.Energy
		}
	}
}

func TestRunHeat2D(t *testing.T) {
	m := stencil.Mesh2D{NX: 8, NY: 4}
	rng := rand.New(rand.NewSource(13))
	u0 := make([]float64, m.N())
	for i := range u0 {
		u0[i] = rng.Float64()
	}
	for _, o := range []Options{
		{Backend: Local, MaxIter: 80, Tol: 1e-8},
		{Backend: Wafer, MaxIter: 80, Tol: 1e-4},
	} {
		steps, err := RunHeat2D(nil, m, 0.15, u0, 3, 2, o)
		if err != nil {
			t.Fatalf("%s: %v", o.Backend, err)
		}
		prev := sumSq(u0)
		for i, s := range steps {
			if s.Energy >= prev {
				t.Fatalf("%s: step %d energy %g did not decay from %g", o.Backend, i+1, s.Energy, prev)
			}
			prev = s.Energy
			// Every step carries the float64 ‖b − Ax‖/‖b‖ (it used to
			// report a perfect 0): real, and within fp16 rounding of
			// the recurrence residual the solve stopped on.
			tr, last := s.Solve.TrueResidual, s.Solve.History[len(s.Solve.History)-1]
			t.Logf("%s step %d: true residual %.3e, recurrence %.3e", o.Backend, i+1, tr, last)
			if !(tr > 0) || math.IsInf(tr, 0) || math.Abs(tr-last) > 2*fp16.Epsilon {
				t.Fatalf("%s: step %d true residual %g, last history entry %g", o.Backend, i+1, tr, last)
			}
		}
		if o.Backend == Wafer && !steps[len(steps)-1].Solve.Telemetry.Simulated {
			t.Fatal("wafer heat telemetry not marked simulated")
		}
	}
	// Bad shapes fail loudly.
	if _, err := RunHeat2D(nil, m, 0.15, u0, 3, 3, Options{Backend: Wafer}); err == nil {
		t.Fatal("odd block size accepted")
	}
	if _, err := RunHeat2D(nil, m, -1, u0, 3, 2, Options{Backend: Local}); err == nil {
		t.Fatal("negative lambda accepted")
	}
}
