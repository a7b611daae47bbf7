package core

import (
	"context"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// StarProblem is a linear system from a star-stencil discretization of
// arbitrary per-axis widths — the 25-point seismic stencil, the 7-point
// heat step, and everything the stencil compiler lowers.
type StarProblem struct {
	Op *stencil.OpStar // need not be normalized; SolveStar normalizes
	B  []float64
}

// NewStarProblem builds a problem with b = A·xexact, returning the
// problem and xexact (handy for accuracy checks).
func NewStarProblem(op *stencil.OpStar, xexact []float64) (StarProblem, []float64) {
	b := make([]float64, op.M.N())
	op.Apply(b, xexact)
	return StarProblem{Op: op, B: b}, xexact
}

// starSpec derives the stencil-compiler spec a star operator lowers
// under: a 3D star of the operator's widths and boundary.
func starSpec(op *stencil.OpStar) stencilc.Spec {
	return stencilc.Spec{Dim: 3, Points: stencilc.Star, Widths: op.W, Boundary: op.Boundary}
}

// SolveStar runs BiCGStab on a star-stencil system. Star solves run on
// the Local (float64 only) and Wafer backends; the wafer path compiles
// the operator's spec with internal/stencilc and rejects combinations
// the lowering does not support (e.g. periodic boundaries) with a
// *stencilc.UnsupportedError.
func SolveStar(p StarProblem, o Options) (Result, error) {
	return SolveStarContext(nil, p, o)
}

// SolveStarContext is SolveStar with cooperative cancellation, with the
// same contract as SolveContext.
func SolveStarContext(ctx context.Context, p StarProblem, o Options) (Result, error) {
	var res Result
	if err := o.Validate(); err != nil {
		return res, err
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	norm, diag := p.Op.Normalize()
	sb := stencil.ScaleRHS(p.B, diag)
	zero := make([]float64, len(sb))
	sopts := solver.Options{
		Ctx:     ctx,
		MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
	}
	switch o.Backend {
	case Local:
		if o.Local.Precision != F64 {
			return res, &OptionError{"Local.Precision", fmt.Sprintf(
				"star solves run in fp64 on the host (got %s); use the wafer backend for the mixed-precision path", o.Local.Precision)}
		}
		x, st, err := solver.HostBackendStar{}.SolveStar(norm, sb, zero, sopts)
		if err != nil {
			return res, err
		}
		res = NewResult(x, st, Telemetry{Backend: Local.String(), Precision: F64.String()})

	case Wafer:
		m := norm.M
		mach := wse.New(waferConfig(o, m.NX, m.NY))
		defer mach.Close()
		be := kernels.NewWaferStarBackend(mach, starSpec(norm))
		sopts.CheckpointEvery = o.Wafer.CheckpointEvery
		sopts.Checkpoint = o.Wafer.Checkpoint
		sopts.Resume = o.Wafer.Resume
		x, st, err := be.SolveStar(norm, sb, zero, sopts)
		if err != nil {
			return res, err
		}
		res = NewResult(x, st, TelemetryFromWSE(be.LastStats))

	default:
		return res, &OptionError{"Backend", fmt.Sprintf(
			"star solves run on the local (fp64) and wafer backends, not %s", o.Backend)}
	}
	res.TrueResidual = norm.ResidualNorm(res.X, sb) / stencil.Norm2(sb)
	return res, nil
}

// ---------------------------------------------------------------------
// Heat stepping

// HeatStep reports one implicit heat step.
type HeatStep struct {
	// U is the temperature field after the step.
	U []float64
	// Energy is ‖U‖₂² after the step — backward Euler is
	// unconditionally dissipative, so this must decay monotonically.
	Energy float64
	// Solve is the step's linear-solve outcome.
	Solve Result
}

// RunHeat3D advances the 3D heat equation `steps` backward-Euler steps
// from u0: each step solves (I + λ·L)·u' = u through SolveStar on the
// selected backend, where λ = α·Δt/h² is the diffusion number. The
// wafer path rebuilds the machine per step at these demo scales; the
// solves themselves reuse nothing across steps, so every step's history
// is independently reproducible.
func RunHeat3D(ctx context.Context, m stencil.Mesh, lambda float64, boundary stencil.Boundary, u0 []float64, steps int, o Options) ([]HeatStep, error) {
	if len(u0) != m.N() {
		return nil, fmt.Errorf("core: initial field length %d, want %d", len(u0), m.N())
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs steps > 0, got %d", steps)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs a positive diffusion number, got %g", lambda)
	}
	op := stencil.Heat3D(m, lambda, boundary)
	u := append([]float64(nil), u0...)
	out := make([]HeatStep, 0, steps)
	for s := 0; s < steps; s++ {
		res, err := SolveStarContext(ctx, StarProblem{Op: op, B: u}, o)
		if err != nil {
			return out, fmt.Errorf("core: heat step %d: %w", s+1, err)
		}
		u = res.X
		out = append(out, HeatStep{U: u, Energy: sumSq(u), Solve: res})
	}
	return out, nil
}

// RunHeat2D is RunHeat3D on a 2D mesh through the Backend2D seam: the
// host float64 solver, or — when o.Backend is Wafer — the 2D block-halo
// wafer program with block² meshpoints per tile (the mesh must tile
// into block×block; the machine is built once and kept warm across
// steps). The 9-point heat step has zero corner coefficients, so the
// wafer program is exactly the 5-point star spec's schedule.
func RunHeat2D(ctx context.Context, m stencil.Mesh2D, lambda float64, u0 []float64, steps, block int, o Options) ([]HeatStep, error) {
	if len(u0) != m.N() {
		return nil, fmt.Errorf("core: initial field length %d, want %d", len(u0), m.N())
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs steps > 0, got %d", steps)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs a positive diffusion number, got %g", lambda)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	var be solver.Backend2D
	var wafer *kernels.Wafer2DBackend
	switch o.Backend {
	case Local:
		if o.Local.Precision != F64 {
			return nil, &OptionError{"Local.Precision", fmt.Sprintf(
				"2D heat steps run in fp64 on the host (got %s); use the wafer backend for the mixed-precision path", o.Local.Precision)}
		}
		be = solver.HostBackend2D{}
	case Wafer:
		if block <= 0 || block%2 != 0 {
			return nil, fmt.Errorf("core: wafer heat stepping needs an even positive block size, got %d", block)
		}
		if m.NX%block != 0 || m.NY%block != 0 {
			return nil, fmt.Errorf("core: mesh %d×%d does not tile into %d×%d blocks", m.NX, m.NY, block, block)
		}
		mach := wse.New(waferConfig(o, m.NX/block, m.NY/block))
		defer mach.Close()
		wafer = kernels.NewWafer2DBackend(mach, block)
		be = wafer
	default:
		return nil, &OptionError{"Backend", fmt.Sprintf(
			"2D heat steps run on the local (fp64) and wafer backends, not %s", o.Backend)}
	}
	norm, diag := stencil.Heat2D(m, lambda).Normalize9()
	u := append([]float64(nil), u0...)
	zero := make([]float64, len(u))
	out := make([]HeatStep, 0, steps)
	for s := 0; s < steps; s++ {
		sb := stencil.ScaleRHS(u, diag)
		x, st, err := be.Solve2D(norm, sb, zero, solver.Options{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
		})
		if err != nil {
			return out, fmt.Errorf("core: heat step %d: %w", s+1, err)
		}
		tel := Telemetry{Backend: Local.String(), Precision: F64.String()}
		if wafer != nil {
			tel = TelemetryFromWSE(wafer.LastStats)
		}
		u = x
		out = append(out, HeatStep{U: u, Energy: sumSq(u), Solve: NewResult(x, st, tel)})
	}
	return out, nil
}

func sumSq(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}
