package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/stencilc"
)

// These tests hold the block-halo dataflow's one functional reference,
// stencilc.Reference2D, to the operator it claims to apply: against a
// float64 Op9 evaluation, on the Poisson stencil, for linearity, and on
// its refusals. The compiled program is pinned to Reference2D bit for
// bit (TestSpMV2DMachine*, FuzzSpMV2DEquivalence, stencilc's
// equivalence tests).

// apply2D is Reference2D on the 9-point box spec.
func apply2D(t *testing.T, op *stencil.Op9, b int, src []fp16.Float16) []fp16.Float16 {
	t.Helper()
	dst, err := stencilc.Reference2D(stencilc.Spec9Point(), op, b, src)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func ref9(op *stencil.Op9, src []fp16.Float16) []float64 {
	// Reference: float64 apply of the fp16-rounded operator on the
	// fp16-rounded input.
	var coeff [9][]fp16.Float16
	for k := range coeff {
		coeff[k] = fp16.FromFloat64Slice(op.C[k])
	}
	m := op.M
	out := make([]float64, m.N())
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			i := m.Index(x, y)
			var s float64
			for k, off := range stencil.Off9 {
				nx, ny := x+off[0], y+off[1]
				if m.In(nx, ny) {
					s += coeff[k][i].Float64() * src[m.Index(nx, ny)].Float64()
				}
			}
			out[i] = s
		}
	}
	return out
}

func TestSpMV2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct{ nx, ny, b int }{
		{8, 8, 4}, {16, 8, 4}, {12, 12, 3}, {8, 8, 8}, {6, 4, 2},
	} {
		m := stencil.Mesh2D{NX: tc.nx, NY: tc.ny}
		op := stencil.Random9(m, 1.3, rng)
		norm, _ := op.Normalize9()
		src := randomHalfVector(m.N(), rng)
		dst := apply2D(t, norm, tc.b, src)
		want := ref9(norm, src)
		for i := range want {
			// 9 terms, each |coeff| <= ~1, |src| <= 1: bound ~ 10ε·Σ|terms|.
			tol := 10 * fp16.Epsilon * 10
			if d := math.Abs(dst[i].Float64() - want[i]); d > tol {
				t.Fatalf("%dx%d b=%d: dst[%d] = %g, want %g (±%g)",
					tc.nx, tc.ny, tc.b, i, dst[i].Float64(), want[i], tol)
			}
		}
	}
}

func TestSpMV2DPoisson9(t *testing.T) {
	m := stencil.Mesh2D{NX: 16, NY: 16}
	norm, _ := stencil.Poisson9(m, 1).Normalize9()
	// A constant vector: interior rows of the normalized 9-point Laplacian
	// sum to zero, so interior results vanish to fp16 accuracy.
	src := make([]fp16.Float16, m.N())
	for i := range src {
		src[i] = fp16.One
	}
	dst := apply2D(t, norm, 4, src)
	i := m.Index(8, 8)
	if v := math.Abs(dst[i].Float64()); v > 0.01 {
		t.Errorf("interior Laplacian of constant = %g, want ~0", v)
	}
	// Boundary cells see the truncated stencil: nonzero.
	if dst[m.Index(0, 0)].IsZero() {
		t.Error("corner result should be nonzero under truncation")
	}
}

func TestSpMV2DHaloAddCount(t *testing.T) {
	// The redundant-work accounting that drives the overhead model:
	// (b+2) adds per interior x-interface side, b per y-interface side —
	// read off the stage lists the compiled program's cycle model replays
	// (a 12×8 mesh in 4×4 blocks).
	tx, ty, b := 3, 2, 4
	want := 2*(tx-1)*ty*(b+2) + 2*tx*(ty-1)*b
	if got := (perfmodel.StencilApply2D{W: tx, H: ty, B: b, Points: 9}).HaloAdds(); got != want {
		t.Errorf("HaloAdds = %d, want %d", got, want)
	}
}

func TestSpMV2DRejectsBadBlocking(t *testing.T) {
	m := stencil.Mesh2D{NX: 10, NY: 10}
	norm, _ := stencil.Poisson9(m, 1).Normalize9()
	src := make([]fp16.Float16, m.N())
	if _, err := stencilc.Reference2D(stencilc.Spec9Point(), norm, 3, src); err == nil {
		t.Error("non-dividing block size should be rejected")
	}
	if _, err := stencilc.Reference2D(stencilc.Spec9Point(), stencil.Poisson9(m, 1), 5, src); err == nil {
		t.Error("non-normalized operator should be rejected")
	}
}

func TestSpMV2DLinearity(t *testing.T) {
	// Halos must not double-count: A(u+v) ≈ Au + Av within fp16 error.
	m := stencil.Mesh2D{NX: 8, NY: 8}
	rng := rand.New(rand.NewSource(7))
	norm, _ := stencil.Random9(m, 1.5, rng).Normalize9()
	u := randomHalfVector(m.N(), rng)
	v := randomHalfVector(m.N(), rng)
	sum := make([]fp16.Float16, m.N())
	for i := range sum {
		sum[i] = fp16.Add(u[i], v[i])
	}
	au, av, asum := apply2D(t, norm, 4, u), apply2D(t, norm, 4, v), apply2D(t, norm, 4, sum)
	for i := range sum {
		want := au[i].Float64() + av[i].Float64()
		if d := math.Abs(asum[i].Float64() - want); d > 0.05 {
			t.Fatalf("linearity violated at %d: %g vs %g", i, asum[i].Float64(), want)
		}
	}
}
