package solver

import "repro/internal/stencil"

// Backend2D solves A·x = b for a unit-centre 9-point operator on a 2D
// mesh — the pluggable substrate behind the 2D SIMPLE solver
// (internal/mfix.Cavity2D). Implementations decide *where* the solve
// runs: HostBackend2D below runs float64 BiCGStab in-process, and
// internal/kernels.Wafer2DBackend runs the same algorithm on the
// cycle-simulated wafer through the 2D block-halo SpMV, which is how
// the pressure-correction solve of the Table II cavity executes on the
// simulated fabric.
//
// x0 is the initial guess; backends may require x0 = 0 (the wafer
// solver starts from zero, as the paper's does). The returned Stats
// carry the iterative residual history for convergence comparisons
// across backends.
type Backend2D interface {
	Name() string
	Solve2D(op *stencil.Op9, b, x0 []float64, opts Options) ([]float64, Stats, error)
}

// HostBackend2D is the in-process float64 reference backend.
type HostBackend2D struct{}

// Name implements Backend2D.
func (HostBackend2D) Name() string { return "host" }

// Solve2D implements Backend2D with the generic BiCGStab over a float64
// 9-point operator.
func (HostBackend2D) Solve2D(op *stencil.Op9, b, x0 []float64, opts Options) ([]float64, Stats, error) {
	ctx := NewF64()
	return hostSolve("host", ctx, ctx.NewOperator2D(op), op.M.N(), b, x0, opts)
}

// NewOperator2D adapts a unit-centre 9-point operator to this context.
func (f *F64) NewOperator2D(o *stencil.Op9) Operator {
	for i := 0; i < o.M.N(); i++ {
		if o.C[4][i] != 1 {
			panic("solver: 2D operator must be diagonally preconditioned (unit centre); call Normalize9 first")
		}
	}
	return &f64Op2D{op: o, ctx: f}
}

type f64Op2D struct {
	op  *stencil.Op9
	ctx *F64
}

func (o *f64Op2D) Apply(dst, src Vector) {
	o.op.Apply(dst.(*f64Vec).d, src.(*f64Vec).d)
	// Padded-kernel accounting for the 9-point matvec: eight off-centre
	// multiply-adds per meshpoint (the unit centre costs no multiply).
	c := &o.ctx.c.ByKind[KindMatvec]
	n := int64(o.op.M.N())
	c.SPMul += 8 * n
	c.SPAdd += 8 * n
}
