package solver

import (
	"fmt"
	"math"

	"repro/internal/stencil"
)

// Backend solves A·x = b for a unit-diagonal stencil operator — the
// one seam every execution substrate plugs into, whatever the stencil's
// shape. Host below runs the generic BiCGStab in a precision context
// in-process; internal/kernels.WaferBackend runs the same algorithm on
// cycle-simulated wafers — one (Listing 1 for the 7-point operator, the
// §IV-2 block-halo program for the 2D 9-point, a stencil-compiled
// program for any star) or a grid of them (multiwafer.NewBackend).
// core's solve pipeline, the SIMPLE solver of internal/mfix and
// the daemon's warm cache are all written against this interface, so
// adding an execution substrate means implementing it (see
// docs/ARCHITECTURE.md, "A new execution backend").
//
// A backend handed an operator kind it cannot run returns an error and
// stays usable. x0 is the initial guess; backends may require x0 = 0
// (the wafer solvers start from zero, as the paper's does). The
// returned Stats carry the iterative residual history for convergence
// comparisons across backends.
type Backend interface {
	Name() string
	Solve(a stencil.Operator, b, x0 []float64, opts Options) ([]float64, Stats, error)
}

// Host is the in-process reference backend over a precision context;
// the zero value solves in float64. F64 runs every operator kind, the
// narrower contexts (which store their own image of the coefficients)
// the 7-point operator only.
type Host struct {
	// Context selects the arithmetic; nil means NewF64().
	Context Context
}

// Name implements Backend.
func (h Host) Name() string {
	if h.Context == nil {
		return "host/fp64"
	}
	return "host/" + h.Context.Name()
}

// Solve implements Backend with the generic BiCGStab.
func (h Host) Solve(a stencil.Operator, b, x0 []float64, opts Options) ([]float64, Stats, error) {
	if err := opts.RejectCheckpoint(h.Name()); err != nil {
		return nil, Stats{}, err
	}
	if err := CheckSystem(a, b, x0); err != nil {
		return nil, Stats{}, err
	}
	ctx := h.Context
	if ctx == nil {
		ctx = NewF64()
	}
	var op Operator
	if f, ok := ctx.(*F64); ok {
		op = f.OperatorOf(a)
	} else if o7, ok := a.(*stencil.Op7); ok {
		op = ctx.NewOperator(o7)
	} else {
		return nil, Stats{}, fmt.Errorf("solver: %s backend runs 7-point operators only, got %T", h.Name(), a)
	}
	bv := ctx.NewVector(len(b))
	xv := ctx.NewVector(len(b))
	for i := range b {
		bv.Set(i, b[i])
		xv.Set(i, x0[i])
	}
	st, err := BiCGStab(ctx, op, bv, xv, opts)
	if err != nil {
		return nil, st, err
	}
	return xv.Float64(), st, nil
}

// CheckSystem is the precondition every Backend checks before it does
// any work: a unit-diagonal operator, and a right-hand side and initial
// guess of the operator's size.
func CheckSystem(a stencil.Operator, b, x0 []float64) error {
	if n := a.N(); len(b) != n || len(x0) != n {
		return fmt.Errorf("solver: system size mismatch: mesh %d, b %d, x0 %d", n, len(b), len(x0))
	}
	if !a.IsUnitDiagonal() {
		// A NaN or Inf coefficient fails the unit-diagonal test too —
		// normalizing a NaN diagonal leaves NaN/NaN — and then "normalize
		// it first" is the wrong advice: say what is wrong instead.
		ones, row := make([]float64, len(b)), make([]float64, len(b))
		for i := range ones {
			ones[i] = 1
		}
		a.Apply(row, ones)
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("solver: operator row %d has a non-finite coefficient (row sum %g)", i, v)
			}
		}
		return fmt.Errorf("solver: operator must be diagonally preconditioned (unit diagonal); normalize it first")
	}
	return nil
}
