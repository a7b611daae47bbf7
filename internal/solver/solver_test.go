package solver

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stencil"
)

// denseSolve solves A·x = b by Gaussian elimination with partial pivoting,
// where A is materialized from the stencil operator. Ground truth for
// small systems.
func denseSolve(t *testing.T, o *stencil.Op7, b []float64) []float64 {
	t.Helper()
	n := o.M.N()
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	// Column j of A = A·e_j.
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		o.Apply(col, e)
		e[j] = 0
		for i := 0; i < n; i++ {
			a[i][j] = col[i]
		}
	}
	for i := 0; i < n; i++ {
		a[i][n] = b[i]
	}
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[piv][k]) {
				piv = i
			}
		}
		a[k], a[piv] = a[piv], a[k]
		if a[k][k] == 0 {
			t.Fatal("singular dense system")
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j <= n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// setupProblem normalizes op, builds b = A·xexact, and returns everything
// needed to run a solve in the given context.
func setupProblem(ctx Context, op *stencil.Op7, xexact []float64) (Operator, Vector, Vector, *stencil.Op7, []float64) {
	norm, diag := op.Normalize()
	n := op.M.N()
	b64 := make([]float64, n)
	op.Apply(b64, xexact)
	sb := stencil.ScaleRHS(b64, diag)
	a := ctx.NewOperator(norm)
	b := ctx.NewVector(n)
	for i := 0; i < n; i++ {
		b.Set(i, sb[i])
	}
	x := ctx.NewVector(n)
	return a, b, x, norm, sb
}

func TestBiCGStabF64Poisson(t *testing.T) {
	m := stencil.Mesh{NX: 5, NY: 4, NZ: 6}
	op := stencil.Poisson(m, 1)
	rng := rand.New(rand.NewSource(1))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	ctx := NewF64()
	a, b, x, norm, sb := setupProblem(ctx, op, xe)
	st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 300, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if r := norm.ResidualNorm(x.Float64(), sb); r > 1e-9*stencil.Norm2(sb) {
		t.Errorf("true residual %g too large", r)
	}
	for i := range xe {
		if math.Abs(x.At(i)-xe[i]) > 1e-7*(1+math.Abs(xe[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, x.At(i), xe[i])
		}
	}
}

func TestBiCGStabMatchesDense(t *testing.T) {
	m := stencil.Mesh{NX: 3, NY: 3, NZ: 3}
	rng := rand.New(rand.NewSource(21))
	op := stencil.ConvectionDiffusion(m, 0.3, [3]float64{1, -0.5, 0.25}, 0.5)
	b64 := make([]float64, m.N())
	for i := range b64 {
		b64[i] = rng.NormFloat64()
	}
	want := denseSolve(t, op, b64)

	norm, diag := op.Normalize()
	sb := stencil.ScaleRHS(b64, diag)
	ctx := NewF64()
	a := ctx.NewOperator(norm)
	b := ctx.NewVector(m.N())
	for i, v := range sb {
		b.Set(i, v)
	}
	x := ctx.NewVector(m.N())
	st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 200, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("solve failed: %v %+v", err, st)
	}
	for i := range want {
		if math.Abs(x.At(i)-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %g, dense %g", i, x.At(i), want[i])
		}
	}
}

func TestBiCGStabNonsymmetricConvergence(t *testing.T) {
	// Property: BiCGStab in f64 converges on random diagonally dominant
	// nonsymmetric stencil systems.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := stencil.Mesh{NX: 2 + rng.Intn(4), NY: 2 + rng.Intn(4), NZ: 2 + rng.Intn(4)}
		op := stencil.RandomDiagDominant(m, 1.5, rng)
		xe := make([]float64, m.N())
		for i := range xe {
			xe[i] = rng.NormFloat64()
		}
		ctx := NewF64()
		a, b, x, _, _ := setupProblem(ctx, op, xe)
		st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 500, Tol: 1e-10})
		if err != nil {
			return false
		}
		return st.Converged || st.FinalResidual < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBiCGStabMixedPlateau(t *testing.T) {
	// The Figure 9 mechanism in miniature: in the *true* residual
	// ‖b−Ax‖/‖b‖ (recomputed in float64 from the stored iterate), mixed
	// precision tracks fp32 for the first iterations, then plateaus near
	// fp16 machine ε (~1e-3..1e-2) while fp32 continues to converge.
	m := stencil.Mesh{NX: 10, NY: 20, NZ: 10}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	rng := rand.New(rand.NewSource(3))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}

	run := func(ctx Context) []float64 {
		a, b, x, norm, sb := setupProblem(ctx, op, xe)
		bn := stencil.Norm2(sb)
		st, err := BiCGStab(ctx, a, b, x, Options{
			MaxIter: 15, Tol: 0,
			TrueResidual: func(v Vector) float64 {
				return norm.ResidualNorm(v.Float64(), sb) / bn
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = a
		return st.TrueHistory
	}
	h32 := run(NewF32())
	hmx := run(NewMixed())

	if len(h32) == 0 || len(hmx) == 0 {
		t.Fatal("no history recorded")
	}
	final32 := h32[len(h32)-1]
	finalmx := hmx[len(hmx)-1]
	if final32 > 1e-5 {
		t.Errorf("fp32 true residual should fall below 1e-5, got %g", final32)
	}
	if finalmx < 1e-4 || finalmx > 1e-1 {
		t.Errorf("mixed precision should plateau in [1e-4, 1e-1], got %g", finalmx)
	}
	if finalmx < 10*final32 {
		t.Errorf("mixed plateau %g should sit well above fp32 floor %g", finalmx, final32)
	}
	// Early iterations track each other within an order of magnitude.
	for i := 0; i < 3 && i < len(hmx) && i < len(h32); i++ {
		if hmx[i] > 10*h32[i]+1e-3 {
			t.Errorf("iteration %d residuals diverge: mixed %g vs fp32 %g", i, hmx[i], h32[i])
		}
	}
	// The plateau is a plateau: the last few mixed iterations are flat
	// (no further order-of-magnitude progress).
	if n := len(hmx); n >= 4 && hmx[n-1] < hmx[n-4]/5 {
		t.Errorf("mixed residual still falling at the end: %g -> %g", hmx[n-4], hmx[n-1])
	}
}

func TestTable1OperationCounts(t *testing.T) {
	// One BiCGStab iteration must cost exactly Table I per meshpoint:
	//   matvec: 12 mul + 12 add;  dot: 4 mul + 4 add;  axpy: 6 mul + 6 add.
	m := stencil.Mesh{NX: 6, NY: 5, NZ: 8}
	op := stencil.RandomDiagDominant(m, 1.5, rand.New(rand.NewSource(2)))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = float64(i%3) - 1
	}
	n := int64(m.N())

	for _, tc := range []struct {
		ctx  Context
		half bool
	}{
		{NewF64(), false},
		{NewF32(), false},
		{NewMixed(), true},
	} {
		a, b, x, _, _ := setupProblem(tc.ctx, op, xe)
		c := tc.ctx.Counters()
		c.Reset()
		// Run exactly 2 iterations; subtract the setup (1 matvec for r0,
		// 1 axpy, 2 dots) measured after iteration 0 is impossible, so run
		// 1 and 3 iterations and difference them.
		runN := func(iters int) Counters {
			a2, b2, x2, _, _ := setupProblem(tc.ctx, op, xe)
			_ = a2
			c.Reset()
			if _, err := BiCGStab(tc.ctx, a2, b2, x2, Options{MaxIter: iters, Tol: 0}); err != nil {
				t.Fatal(err)
			}
			_ = b
			_ = x
			_ = a
			return *c
		}
		c1 := runN(1)
		c3 := runN(3)
		var perIter [numKinds]OpCounts
		for k := range perIter {
			perIter[k] = OpCounts{
				HPAdd: (c3.ByKind[k].HPAdd - c1.ByKind[k].HPAdd) / 2,
				HPMul: (c3.ByKind[k].HPMul - c1.ByKind[k].HPMul) / 2,
				SPAdd: (c3.ByKind[k].SPAdd - c1.ByKind[k].SPAdd) / 2,
				SPMul: (c3.ByKind[k].SPMul - c1.ByKind[k].SPMul) / 2,
			}
		}
		mv, dot, ax := perIter[KindMatvec], perIter[KindDot], perIter[KindAxpy]
		if tc.half {
			if mv.HPMul != 12*n || mv.HPAdd != 12*n || mv.SPAdd != 0 {
				t.Errorf("%s matvec counts = %+v, want 12n HP each", tc.ctx.Name(), mv)
			}
			if dot.HPMul != 4*n || dot.SPAdd != 4*n || dot.HPAdd != 0 {
				t.Errorf("%s dot counts = %+v, want 4n HP× + 4n SP+", tc.ctx.Name(), dot)
			}
			if ax.HPMul != 6*n || ax.HPAdd != 6*n {
				t.Errorf("%s axpy counts = %+v, want 6n HP each", tc.ctx.Name(), ax)
			}
			tot := perIter[KindMatvec]
			tot.Add(dot)
			tot.Add(ax)
			if got, want := tot.Total(), 44*n; got != want {
				t.Errorf("%s total ops/iter = %d, want 44n = %d", tc.ctx.Name(), got, want)
			}
		} else {
			if mv.SPMul != 12*n || mv.SPAdd != 12*n {
				t.Errorf("%s matvec counts = %+v, want 12n SP each", tc.ctx.Name(), mv)
			}
			if dot.SPMul != 4*n || dot.SPAdd != 4*n {
				t.Errorf("%s dot counts = %+v, want 4n SP each", tc.ctx.Name(), dot)
			}
			if ax.SPMul != 6*n || ax.SPAdd != 6*n {
				t.Errorf("%s axpy counts = %+v, want 6n SP each", tc.ctx.Name(), ax)
			}
		}
	}
}

func TestZeroRHS(t *testing.T) {
	m := stencil.Mesh{NX: 3, NY: 3, NZ: 3}
	op, _ := stencil.Poisson(m, 1).Normalize()
	ctx := NewF64()
	a := ctx.NewOperator(op)
	b := ctx.NewVector(m.N())
	x := ctx.NewVector(m.N())
	if _, err := BiCGStab(ctx, a, b, x, Options{}); err != ErrZeroRHS {
		t.Errorf("expected ErrZeroRHS, got %v", err)
	}
}

// TestCheckSystemNonFinite: an operator that fails the unit-diagonal
// check because a coefficient is NaN (normalizing a NaN centre gives
// NaN/NaN) is reported as non-finite, not as one to normalize.
func TestCheckSystemNonFinite(t *testing.T) {
	m := stencil.Mesh2D{NX: 3, NY: 3}
	b, x0 := make([]float64, m.N()), make([]float64, m.N())
	raw := stencil.Poisson9(m, 1)
	if err := CheckSystem(raw, b, x0); err == nil || !strings.Contains(err.Error(), "normalize it first") {
		t.Errorf("finite, not normalized: %v", err)
	}
	raw.C[4][4] = math.NaN()
	norm, _ := raw.Normalize9()
	if err := CheckSystem(norm, b, x0); err == nil || !strings.Contains(err.Error(), "row 4 has a non-finite coefficient") {
		t.Errorf("NaN centre: %v", err)
	}
}

func TestExactInitialGuess(t *testing.T) {
	// With x0 = exact solution, BiCGStab should report breakdown or
	// converge immediately with a tiny residual.
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 4}
	op := stencil.Poisson(m, 1)
	rng := rand.New(rand.NewSource(5))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	ctx := NewF64()
	a, b, x, _, _ := setupProblem(ctx, op, xe)
	for i := range xe {
		x.Set(i, xe[i])
	}
	st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 10, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged && st.Breakdown == "" && st.FinalResidual > 1e-10 {
		t.Errorf("exact guess not recognized: %+v", st)
	}
	for i := range xe {
		if math.Abs(x.At(i)-xe[i]) > 1e-9 {
			t.Fatalf("solution drifted at %d", i)
		}
	}
}

func TestHistoryMonotoneEarly(t *testing.T) {
	// The recorded history must have length == iterations and start at or
	// below ~1 for a zero initial guess.
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	op := stencil.Poisson(m, 1)
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = 1
	}
	ctx := NewF64()
	a, b, x, _, _ := setupProblem(ctx, op, xe)
	st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 12, Tol: 0, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.History) != st.Iterations {
		t.Fatalf("history length %d != iterations %d", len(st.History), st.Iterations)
	}
	if st.History[len(st.History)-1] > st.History[0] {
		t.Errorf("residual grew over 12 iterations on Poisson: %g -> %g",
			st.History[0], st.History[len(st.History)-1])
	}
}

func TestTrueResidualCallback(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 4}
	op := stencil.Poisson(m, 1)
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = float64(i)
	}
	ctx := NewF64()
	a, b, x, norm, sb := setupProblem(ctx, op, xe)
	bn := stencil.Norm2(sb)
	calls := 0
	st, err := BiCGStab(ctx, a, b, x, Options{
		MaxIter: 5, Tol: 0, RecordHistory: true,
		TrueResidual: func(v Vector) float64 {
			calls++
			return norm.ResidualNorm(v.Float64(), sb) / bn
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != st.Iterations || len(st.TrueHistory) != st.Iterations {
		t.Errorf("callback called %d times over %d iterations", calls, st.Iterations)
	}
	// In f64 the iterative and true residuals agree closely early on.
	if math.Abs(math.Log10(st.TrueHistory[0])-math.Log10(st.History[0])) > 1 {
		t.Errorf("true %g vs iterative %g residual mismatch", st.TrueHistory[0], st.History[0])
	}
}

func TestF32MatchesF64Early(t *testing.T) {
	// For a well-conditioned system the first few fp32 iterations track
	// fp64 residuals to several digits.
	m := stencil.Mesh{NX: 6, NY: 6, NZ: 6}
	op := stencil.MomentumLike(m, 0.05, [3]float64{0.5, 0.5, 0}, 0.2, 1, 0.1)
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = math.Sin(float64(i))
	}
	run := func(ctx Context) []float64 {
		a, b, x, _, _ := setupProblem(ctx, op, xe)
		st, err := BiCGStab(ctx, a, b, x, Options{MaxIter: 4, Tol: 0, RecordHistory: true})
		if err != nil {
			t.Fatal(err)
		}
		return st.History
	}
	h64 := run(NewF64())
	h32 := run(NewF32())
	for i := range h64 {
		if h64[i] == 0 {
			continue
		}
		ratio := h32[i] / h64[i]
		if ratio > 2 || ratio < 0.5 {
			if h64[i] > 1e-6 { // only compare above fp32 noise floor
				t.Errorf("iter %d: fp32 %g vs fp64 %g", i, h32[i], h64[i])
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	for _, ctx := range []Context{NewF64(), NewF32(), NewMixed()} {
		v := ctx.NewVector(4)
		w := ctx.NewVector(4)
		z := ctx.NewVector(4)
		for i := 0; i < 4; i++ {
			v.Set(i, float64(i+1)) // 1 2 3 4
			w.Set(i, 2)
		}
		z.SetAXPY(3, w, v) // z = 3*2 + v
		for i := 0; i < 4; i++ {
			if got, want := z.At(i), float64(i+7); got != want {
				t.Errorf("%s SetAXPY[%d] = %g, want %g", ctx.Name(), i, got, want)
			}
		}
		z.AXPY(-1, v) // z -= v → 6
		for i := 0; i < 4; i++ {
			if z.At(i) != 6 {
				t.Errorf("%s AXPY[%d] = %g, want 6", ctx.Name(), i, z.At(i))
			}
		}
		z.XPAY(0.5, v) // z = v + 0.5*z = v + 3
		for i := 0; i < 4; i++ {
			if got, want := z.At(i), float64(i+4); got != want {
				t.Errorf("%s XPAY[%d] = %g, want %g", ctx.Name(), i, got, want)
			}
		}
		if got, want := v.Dot(w), 20.0; got != want {
			t.Errorf("%s Dot = %g, want %g", ctx.Name(), got, want)
		}
		if n := Norm2(w); n != 4 {
			t.Errorf("%s Norm2 = %g, want 4", ctx.Name(), n)
		}
	}
}
