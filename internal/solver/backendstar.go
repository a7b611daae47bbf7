package solver

import "repro/internal/stencil"

// BackendStar solves A·x = b for a unit-diagonal star operator of
// arbitrary per-axis widths on a 3D mesh — the seam the wide-stencil
// workloads (the 25-point seismic stencil, the implicit heat steps)
// plug into. It generalizes Backend3D, whose 7-point operator is the
// width-1 star: HostBackendStar below runs float64 BiCGStab
// in-process, and internal/kernels.WaferStarBackend runs the same
// algorithm on the cycle-simulated wafer through a stencil-compiled
// (internal/stencilc) relay-exchange SpMV.
//
// x0 is the initial guess; backends may require x0 = 0 (the wafer
// solver starts from zero, as the paper's does). The returned Stats
// carry the iterative residual history for convergence comparisons
// across backends.
type BackendStar interface {
	Name() string
	SolveStar(op *stencil.OpStar, b, x0 []float64, opts Options) ([]float64, Stats, error)
}

// HostBackendStar is the in-process float64 reference backend.
type HostBackendStar struct{}

// Name implements BackendStar.
func (HostBackendStar) Name() string { return "host" }

// SolveStar implements BackendStar with the generic BiCGStab over a
// float64 star operator.
func (HostBackendStar) SolveStar(op *stencil.OpStar, b, x0 []float64, opts Options) ([]float64, Stats, error) {
	ctx := NewF64()
	return hostSolve("host", ctx, ctx.NewOperatorStar(op), op.M.N(), b, x0, opts)
}

// NewOperatorStar adapts a unit-diagonal star operator to this context.
func (f *F64) NewOperatorStar(o *stencil.OpStar) Operator {
	if !o.IsUnitDiagonal() {
		panic("solver: star operator must be diagonally preconditioned (unit diagonal); call Normalize first")
	}
	return &f64OpStar{op: o, ctx: f}
}

type f64OpStar struct {
	op  *stencil.OpStar
	ctx *F64
}

func (o *f64OpStar) Apply(dst, src Vector) {
	o.op.Apply(dst.(*f64Vec).d, src.(*f64Vec).d)
	// Padded-kernel accounting: one multiply-add per off-diagonal point
	// — 2(Wx+Wy+Wz) per meshpoint (the unit diagonal costs no multiply).
	w := o.op.W
	pts := int64(2 * (w[0] + w[1] + w[2]))
	c := &o.ctx.c.ByKind[KindMatvec]
	n := int64(o.op.M.N())
	c.SPMul += pts * n
	c.SPAdd += pts * n
}
