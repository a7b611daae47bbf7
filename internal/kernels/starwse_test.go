package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// wseSolver is what the solver tests drive: any of the package's wafer
// BiCGStab solvers.
type wseSolver interface {
	Solve([]fp16.Float16, WSEOptions) ([]fp16.Float16, WSEStats, error)
}

// newHaloSolver builds the deterministic halo-exchange rendering of the
// 7-point solve: the star solver at the 7-point spec.
func newHaloSolver(m *wse.Machine, op *stencil.Op7Half) (*BiCGStabStarWSE, error) {
	return NewBiCGStabStarWSE(m, stencilc.Spec7Point(), stencil.HalfFromOp7(op))
}

// TestStarSolverMatchesHalo pins the star solver as a strict
// generalization: at widths {1,1,1} it is the 7-point halo solve, by
// either route to its operator — the fp16 7-point operator widened
// (stencil.HalfFromOp7, what the multiwafer parts and the halo tests
// load) or the float64 star operator narrowed (stencil.NewOpStarHalf,
// what core.SolveStar loads). The whole solve — solution bits, residual
// history, per-phase cycles, machine fingerprint — must match exactly.
func TestStarSolverMatchesHalo(t *testing.T) {
	m := stencil.Mesh{NX: 6, NY: 5, NZ: 8}
	op := stencil.RandomDiagDominant(m, 1.6, rand.New(rand.NewSource(3)))
	norm, _ := op.Normalize()
	rng := rand.New(rand.NewSource(9))
	bvec := make([]fp16.Float16, m.N())
	for i := range bvec {
		bvec[i] = fp16.FromFloat64(rng.Float64()*2 - 1)
	}
	opts := WSEOptions{MaxIter: 8, Tol: 1e-4}

	mh := wse.New(wse.CS1(m.NX, m.NY))
	defer mh.Close()
	halo, err := newHaloSolver(mh, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	xh, sth, err := halo.Solve(bvec, opts)
	if err != nil {
		t.Fatal(err)
	}

	ms := wse.New(wse.CS1(m.NX, m.NY))
	defer ms.Close()
	star, err := NewBiCGStabStarWSE(ms, stencilc.Spec7Point(), stencil.NewOpStarHalf(stencil.FromOp7(norm)))
	if err != nil {
		t.Fatal(err)
	}
	xs, sts, err := star.Solve(bvec, opts)
	if err != nil {
		t.Fatal(err)
	}

	if sth.Iterations != sts.Iterations {
		t.Fatalf("iterations: halo %d, star %d", sth.Iterations, sts.Iterations)
	}
	for i := range xh {
		if xh[i] != xs[i] {
			t.Fatalf("solution bit %d: halo %v, star %v", i, xh[i], xs[i])
		}
	}
	for i := range sth.History {
		if sth.History[i] != sts.History[i] {
			t.Fatalf("history %d: halo %v, star %v", i, sth.History[i], sts.History[i])
		}
	}
	if sth.Cycles != sts.Cycles {
		t.Fatalf("cycles: halo %+v, star %+v", sth.Cycles, sts.Cycles)
	}
	if fh, fs := mh.Fingerprint(), ms.Fingerprint(); fh != fs {
		t.Fatalf("fingerprints diverge: halo %#x, star %#x", fh, fs)
	}
}

// TestWaferStarBackendSeismic solves the 25-point seismic system on the
// wafer and on the float64 host through the solver.Backend seam: both must
// converge and agree to mixed-precision accuracy, and the warm second
// solve on the same backend must reproduce the first bit for bit.
func TestWaferStarBackendSeismic(t *testing.T) {
	m := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	norm, diag := stencil.Seismic25(m, 0.08).Normalize()
	rng := rand.New(rand.NewSource(17))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b := make([]float64, m.N())
	stencil.Seismic25(m, 0.08).Apply(b, xe)
	sb := stencil.ScaleRHS(b, diag)
	zero := make([]float64, m.N())
	opts := solver.Options{MaxIter: 40, Tol: 1e-3, RecordHistory: true}

	xhost, sthost, err := solver.Host{}.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sthost.Converged {
		t.Fatalf("host star solve did not converge: %+v", sthost)
	}

	mach := wse.New(wse.CS1(m.NX, m.NY))
	defer mach.Close()
	be := NewWaferStarBackend(mach, stencilc.SpecSeismic25())
	xw, stw, err := be.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stw.Converged {
		t.Fatalf("wafer star solve did not converge: %+v", stw)
	}
	for i := range xhost {
		if math.Abs(xw[i]-xhost[i]) > 2e-2 {
			t.Fatalf("solution %d: wafer %g, host %g", i, xw[i], xhost[i])
		}
	}
	if rel := norm.ResidualNorm(xw, sb) / stencil.Norm2(sb); rel > 5e-3 {
		t.Fatalf("wafer true residual %g too large", rel)
	}

	// Warm reuse: identical problem, identical bits.
	xw2, stw2, err := be.Solve(norm, sb, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stw2.Iterations != stw.Iterations {
		t.Fatalf("warm solve iterations %d, cold %d", stw2.Iterations, stw.Iterations)
	}
	for i := range xw {
		if xw2[i] != xw[i] {
			t.Fatalf("warm solve diverges at %d: %g vs %g", i, xw2[i], xw[i])
		}
	}
	if be.Solves != 2 {
		t.Fatalf("Solves = %d, want 2", be.Solves)
	}

	// The seam checks the system's size before touching the machine: a
	// short or nil x0 is refused, and the backend stays warm.
	for _, short := range [][]float64{nil, zero[:len(zero)-1]} {
		if _, _, err := be.Solve(norm, sb, short, opts); err == nil {
			t.Fatalf("x0 of length %d accepted for a system of %d", len(short), len(sb))
		}
	}
	if be.Solves != 2 {
		t.Fatalf("a refused solve was counted: Solves = %d", be.Solves)
	}
}

// TestStarSolverRejectsPartialFabric pins the full-mesh requirement:
// the solve's Dirichlet handling relies on never-written halos, which
// only holds when the mesh extent equals the fabric.
func TestStarSolverRejectsPartialFabric(t *testing.T) {
	m := stencil.Mesh{NX: 2, NY: 2, NZ: 4}
	st := stencil.NewOpStar(m, [3]int{1, 1, 1})
	for i := range st.C {
		st.C[i] = 1
	}
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	if _, err := NewBiCGStabStarWSE(mach, stencilc.Spec7Point(), stencil.NewOpStarHalf(st)); err == nil {
		t.Fatal("NewBiCGStabStarWSE accepted a mesh smaller than the fabric")
	}
}
