package kernels

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// TestBiCGStabWSECancelMachineReusable: a mid-solve cancellation must
// leave the machine in a state the warm cache can reuse — reloaded
// through LoadCoeff, as the service reloads a cached machine, the next
// solve on the canceled machine is bit-identical to a solve on a fresh
// one. This is the property that lets the service return a canceled
// job's wafer to the cache instead of discarding it.
func TestBiCGStabWSECancelMachineReusable(t *testing.T) {
	const iters = 6
	w, norm, sb, _ := wseProblem(t, 4, 3, 6, 5)
	b16 := fp16.FromFloat64Slice(sb)

	// Reference: uninterrupted solve on a fresh machine.
	refMach := wse.New(wse.CS1(4, 3))
	defer refMach.Close()
	refW, err := NewBiCGStabWSE(refMach, stencil.NewOp7Half(norm))
	if err != nil {
		t.Fatal(err)
	}
	refX, refSt, err := refW.Solve(b16, WSEOptions{MaxIter: iters})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from the Progress hook after iteration 2: the next
	// iteration-boundary poll observes it and unwinds.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, st, err := w.Solve(b16, WSEOptions{
		Ctx: ctx, MaxIter: iters,
		Progress: func(iter int, rel float64) {
			if iter == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if st.Iterations != 2 {
		t.Fatalf("canceled after %d iterations, want 2", st.Iterations)
	}

	// Reload and re-solve: bit-identical to the fresh machine.
	if err := w.LoadCoeff(stencil.NewOp7Half(norm)); err != nil {
		t.Fatal(err)
	}
	gotX, gotSt, err := w.Solve(b16, WSEOptions{MaxIter: iters})
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "canceled machine reloaded", gotX, gotSt, refX, refSt)
}
