package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/multiwafer"
)

// TestSolveContextPreCanceled: a context canceled before the solve
// starts unwinds every backend at its first iteration boundary with an
// error that classifies as context.Canceled.
func TestSolveContextPreCanceled(t *testing.T) {
	p, _ := testProblem(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"local", Options{Backend: Local, MaxIter: 10}},
		{"wafer", Options{Backend: Wafer, MaxIter: 10}},
		{"multiwafer", Options{Backend: MultiWafer, MultiWafer: MultiWaferOptions{Grid: multiwafer.Topology{W: 2, H: 1}}, MaxIter: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SolveContext(ctx, p, tc.opts)
			if err == nil {
				t.Fatal("canceled solve returned nil error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
			}
		})
	}
}

// TestSolveContextDeadline: an expired deadline classifies as
// context.DeadlineExceeded — the service layer relies on this to give
// deadline-expired jobs a distinct terminal status.
func TestSolveContextDeadline(t *testing.T) {
	p, _ := testProblem(5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, p, Options{Backend: Local, MaxIter: 10})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline expiry also classified as Canceled: %v", err)
	}
}

// TestSolveContextNoCancelBitIdentical: threading a live context must
// not perturb the solve — results stay bit-identical to Solve.
func TestSolveContextNoCancelBitIdentical(t *testing.T) {
	p, _ := testProblem(5)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"local", Options{Backend: Local, MaxIter: 12}},
		{"wafer", Options{Backend: Wafer, MaxIter: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Solve(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := SolveContext(ctx, p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.X) != len(ref.X) {
				t.Fatalf("solution length %d, want %d", len(got.X), len(ref.X))
			}
			for i := range got.X {
				if got.X[i] != ref.X[i] {
					t.Fatalf("X[%d] = %v, ref %v: context thread perturbed the solve", i, got.X[i], ref.X[i])
				}
			}
		})
	}
}
