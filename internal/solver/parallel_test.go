package solver

import (
	stdctx "context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stencil"
)

// parallelSystem is a normalized convection–diffusion system with a
// random right-hand side.
func parallelSystem(m stencil.Mesh, seed int64) (*stencil.Op7, []float64) {
	norm, _ := stencil.ConvectionDiffusion(m, 0.2, [3]float64{1, -0.3, 0.2}, 0.25).Normalize()
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return norm, b
}

func mustParallel(t *testing.T, inner Context, ranks int) Context {
	t.Helper()
	p, err := Parallel(inner, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %.17g (%#x), want %.17g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestParallelRankSweep is contract 2 at its source: on a mesh whose 81
// columns none of 2, 5, 8 or 64 divides, history and solution are
// bit-equal at every rank count, and equal to the sequential inner
// context's — the exact combine over whole columns carries it, not the
// decomposition. Under -race it also proves the ranks' writes disjoint.
func TestParallelRankSweep(t *testing.T) {
	m := stencil.Mesh{NX: 9, NY: 9, NZ: 8}
	norm, b := parallelSystem(m, 17)
	zeros := make([]float64, m.N())
	opts := Options{MaxIter: 12, RecordHistory: true}
	for _, tc := range []struct {
		name  string
		inner func() Context
	}{
		{"fp64-exact", func() Context { return NewF64Exact() }},
		{"mixed-chunked", func() Context { return NewMixedChunked(m.NZ) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantX, want, err := Host{Context: tc.inner()}.Solve(norm, b, zeros, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.History) != opts.MaxIter {
				t.Fatalf("sequential solve recorded %d iterations, want %d", len(want.History), opts.MaxIter)
			}
			for _, ranks := range []int{1, 2, 5, 8, 64} {
				x, st, err := Host{Context: mustParallel(t, tc.inner(), ranks)}.Solve(norm, b, zeros, opts)
				if err != nil {
					t.Fatalf("ranks=%d: %v", ranks, err)
				}
				sameBits(t, fmt.Sprintf("ranks=%d history", ranks), st.History, want.History)
				sameBits(t, fmt.Sprintf("ranks=%d x", ranks), x, wantX)
			}
		})
	}
}

// TestParallelParentGolden pins the fp64 rank-parallel history to the
// bits cluster.ParallelBiCGStab (channel halo exchange, 3D block
// decomposition, mutex reducer) produced at the commit before it was
// deleted: the 16³ convection–diffusion system of BenchmarkFigure7, 10
// iterations — recorded at 8 ranks, equal there at 1 and 64.
func TestParallelParentGolden(t *testing.T) {
	golden := []uint64{
		0x3fcc6439024d9dec, 0x3fbd234e70968b7c, 0x3fb2ed9044b4a39d, 0x3fab35b70bf0f616,
		0x3fa42adb4245107f, 0x3f9e462425049ff6, 0x3f96fb9970b053eb, 0x3f9114cc3583e7a8,
		0x3f86b85c6096563e, 0x3f8a5c4052fa8235,
	}
	m := stencil.Mesh{NX: 16, NY: 16, NZ: 16}
	norm, _ := stencil.ConvectionDiffusion(m, 0.2, [3]float64{1, -0.3, 0.2}, 0.25).Normalize()
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, ranks := range []int{1, 8, 64} {
		_, st, err := Host{Context: mustParallel(t, NewF64Exact(), ranks)}.
			Solve(norm, b, make([]float64, m.N()), Options{MaxIter: len(golden), RecordHistory: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(st.History) != len(golden) {
			t.Fatalf("ranks=%d: %d history entries, want %d", ranks, len(st.History), len(golden))
		}
		for i, h := range st.History {
			if math.Float64bits(h) != golden[i] {
				t.Errorf("ranks=%d: history[%d] = %.17g (%#x), parent had %#x", ranks, i, h, math.Float64bits(h), golden[i])
			}
		}
	}
}

// TestParallelRejects: what Parallel cannot run exactly it refuses with
// an error — a context whose dot is not an exact combine, no ranks,
// more ranks than columns, a dot chunk that straddles columns.
func TestParallelRejects(t *testing.T) {
	for _, inner := range []Context{NewF64(), NewF32(), NewMixed()} {
		if _, err := Parallel(inner, 2); err == nil || !strings.Contains(err.Error(), "exactly combined") {
			t.Errorf("Parallel(%s): err = %v, want the exact-combine refusal", inner.Name(), err)
		}
	}
	if _, err := Parallel(NewF64Exact(), 0); err == nil {
		t.Error("Parallel with 0 ranks accepted")
	}
	m := stencil.Mesh{NX: 3, NY: 2, NZ: 4}
	norm, b := parallelSystem(m, 1)
	zeros := make([]float64, m.N())
	for _, tc := range []struct {
		name string
		ctx  Context
		want string
	}{
		{"ranks > columns", mustParallel(t, NewF64Exact(), 7), "7 ranks for the 6 columns"},
		{"chunk straddles columns", mustParallel(t, NewMixedChunked(3), 2), "does not divide NZ"},
	} {
		_, _, err := Host{Context: tc.ctx}.Solve(norm, b, zeros, Options{MaxIter: 2})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// A star system is refused like under every narrow host context.
	star := stencil.Heat3D(m, 0.1, stencil.Dirichlet)
	if _, _, err := (Host{Context: mustParallel(t, NewF64Exact(), 2)}).Solve(star, b, zeros, Options{}); err == nil {
		t.Error("Parallel ran a star operator")
	}
}

// TestParallelCancelMidSolve: the ranks are fork-join per operation, so
// a cancel observed at an iteration boundary is plain opts.CtxErr() —
// the error wraps ctx.Err() and no goroutine outlives the solve.
func TestParallelCancelMidSolve(t *testing.T) {
	m := stencil.Mesh{NX: 9, NY: 9, NZ: 8}
	norm, b := parallelSystem(m, 5)
	before := runtime.NumGoroutine()
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	defer cancel()
	iters := 0
	_, st, err := Host{Context: mustParallel(t, NewF64Exact(), 8)}.Solve(norm, b, make([]float64, m.N()),
		Options{Ctx: ctx, MaxIter: 50, Progress: func(it int, _ float64) {
			if iters = it; it == 3 {
				cancel()
			}
		}})
	if !errors.Is(err, stdctx.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if iters != 3 || st.Iterations != 3 {
		t.Errorf("solve ran %d iterations (stats %d) after a cancel at 3", iters, st.Iterations)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the canceled solve, %d before", n, before)
	}
}

// TestParallelCountersMatchSequential: the per-rank counts fold into
// the inner context's, so Table I's accounting does not see the ranks.
func TestParallelCountersMatchSequential(t *testing.T) {
	m := stencil.Mesh{NX: 5, NY: 3, NZ: 4}
	norm, b := parallelSystem(m, 9)
	zeros := make([]float64, m.N())
	seq := NewMixedChunked(m.NZ)
	if _, _, err := (Host{Context: seq}).Solve(norm, b, zeros, Options{MaxIter: 3}); err != nil {
		t.Fatal(err)
	}
	inner := NewMixedChunked(m.NZ)
	if _, _, err := (Host{Context: mustParallel(t, inner, 4)}).Solve(norm, b, zeros, Options{MaxIter: 3}); err != nil {
		t.Fatal(err)
	}
	if got, want := inner.Counters().ByKind, seq.Counters().ByKind; got != want {
		t.Errorf("counters under 4 ranks %+v, sequential %+v", got, want)
	}
}
