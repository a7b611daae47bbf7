package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// TestAllBackendsBitIdentical is the cross-backend determinism golden:
// the host chunked-mixed context, the single-wafer halo solver (one
// shard and four) and the multi-wafer backend (1×1 and 2×1) must
// produce bit-identical residual histories AND solutions on a
// shared problem. This is what the exact-combine fix buys: every backend
// performs the same fp16 element operations in the same order and sums
// the same per-tile-column float32 dot partials with one rounding.
func TestAllBackendsBitIdentical(t *testing.T) {
	m := stencil.Mesh{NX: 4, NY: 4, NZ: 8}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	norm, diag := op.Normalize()
	rng := rand.New(rand.NewSource(7))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	b := make([]float64, m.N())
	op.Apply(b, xe)
	sb := stencil.ScaleRHS(b, diag)
	h := stencil.NewOp7Half(norm)
	b16 := fp16.FromFloat64Slice(sb)
	zeros := make([]float64, m.N())
	const iters = 6

	type run struct {
		name string
		hist []float64
		x    []float64
	}
	var runs []run

	// Host, chunked-mixed: per-NZ-column float32 partials, exact combine.
	hx, hst, err := solver.Host{Context: solver.NewMixedChunked(m.NZ)}.
		Solve(norm, sb, zeros, solver.Options{MaxIter: iters, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if hst.Breakdown != "" {
		t.Fatalf("host solve broke down (%q); pick a problem that runs all %d iterations", hst.Breakdown, iters)
	}
	runs = append(runs, run{"host/" + solver.NewMixedChunked(m.NZ).Name(), hst.History, hx})

	// Single-wafer halo solver, on one shard and on four.
	for _, workers := range []int{1, 4} {
		cfg := wse.CS1(m.NX, m.NY)
		cfg.Workers = workers
		mach := wse.New(cfg)
		w, err := kernels.NewBiCGStabStarWSE(mach, stencilc.Spec7Point(), stencil.HalfFromOp7(h))
		if err != nil {
			mach.Close()
			t.Fatal(err)
		}
		x16, st, err := w.Solve(b16, kernels.WSEOptions{MaxIter: iters})
		mach.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Breakdown != "" {
			t.Fatalf("wafer solve broke down: %q", st.Breakdown)
		}
		runs = append(runs, run{fmt.Sprintf("wafer/halo/w%d", workers), st.History, fp16.ToFloat64Slice(x16)})
	}

	// Multi-wafer cluster, one and two wafers.
	for _, g := range []multiwafer.Topology{{W: 1, H: 1}, {W: 2, H: 1}} {
		be := multiwafer.NewBackend(g)
		x, st, err := be.Solve(norm, sb, zeros, solver.Options{MaxIter: iters, RecordHistory: true})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{be.Name(), st.History, x})
	}

	ref := runs[0]
	if len(ref.hist) != iters {
		t.Fatalf("%s: %d history entries, want %d", ref.name, len(ref.hist), iters)
	}
	for _, r := range runs[1:] {
		if len(r.hist) != len(ref.hist) {
			t.Errorf("%s: %d history entries, %s has %d", r.name, len(r.hist), ref.name, len(ref.hist))
			continue
		}
		for i := range ref.hist {
			if math.Float64bits(r.hist[i]) != math.Float64bits(ref.hist[i]) {
				t.Errorf("%s: history[%d] = %.17g (%#x), %s has %.17g (%#x)",
					r.name, i, r.hist[i], math.Float64bits(r.hist[i]),
					ref.name, ref.hist[i], math.Float64bits(ref.hist[i]))
			}
		}
		for i := range ref.x {
			if math.Float64bits(r.x[i]) != math.Float64bits(ref.x[i]) {
				t.Errorf("%s: x[%d] = %g, %s has %g", r.name, i, r.x[i], ref.name, ref.x[i])
				break
			}
		}
	}
}
