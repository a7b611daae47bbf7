package solver

import (
	"fmt"

	"repro/internal/stencil"
)

// Backend3D solves A·x = b for a unit-diagonal 7-point operator on a 3D
// mesh — the 3D counterpart of Backend2D, and the seam the execution
// substrates plug into: HostBackend3D below runs the generic BiCGStab
// in a chosen precision context in-process, and
// internal/multiwafer.Backend runs the mixed-precision solve across a
// grid of cycle-simulated wafers. core.Solve routes its backends
// through this interface, so adding an execution substrate means
// implementing it (see docs/ARCHITECTURE.md, "adding a backend").
//
// x0 is the initial guess; backends may require x0 = 0 (the wafer
// solvers start from zero, as the paper's does). The returned Stats
// carry the iterative residual history for convergence comparisons
// across backends.
type Backend3D interface {
	Name() string
	Solve3D(op *stencil.Op7, b, x0 []float64, opts Options) ([]float64, Stats, error)
}

// HostBackend3D is the in-process reference backend over a precision
// context; the zero value solves in float64.
type HostBackend3D struct {
	// Context selects the arithmetic; nil means NewF64().
	Context Context
}

// Name implements Backend3D.
func (h HostBackend3D) Name() string {
	if h.Context == nil {
		return "host/fp64"
	}
	return "host/" + h.Context.Name()
}

// Solve3D implements Backend3D with the generic BiCGStab.
func (h HostBackend3D) Solve3D(op *stencil.Op7, b, x0 []float64, opts Options) ([]float64, Stats, error) {
	ctx := h.Context
	if ctx == nil {
		ctx = NewF64()
	}
	return hostSolve(h.Name(), ctx, ctx.NewOperator(op), op.M.N(), b, x0, opts)
}

// hostSolve is the body the three host backends share: refuse
// checkpoint requests, check the system size, fill the context's
// vectors, run the generic BiCGStab and widen the solution to float64.
// They differ only in the Operator a they construct over the n-point
// mesh.
func hostSolve(name string, ctx Context, a Operator, n int, b, x0 []float64, opts Options) ([]float64, Stats, error) {
	if err := opts.RejectCheckpoint(name); err != nil {
		return nil, Stats{}, err
	}
	if len(b) != n || len(x0) != n {
		return nil, Stats{}, fmt.Errorf("solver: system size mismatch: mesh %d, b %d, x0 %d", n, len(b), len(x0))
	}
	bv := ctx.NewVector(n)
	xv := ctx.NewVector(n)
	for i := range b {
		bv.Set(i, b[i])
		xv.Set(i, x0[i])
	}
	st, err := BiCGStab(ctx, a, bv, xv, opts)
	if err != nil {
		return nil, st, err
	}
	return xv.Float64(), st, nil
}
