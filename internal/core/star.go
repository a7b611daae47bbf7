package core

import (
	"context"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/stencilc"
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
	return solveOnce(ctx, p.Op, p.B, o)
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
// from u0: each step solves (I + λ·L)·u' = u as a star system on the
// selected backend, where λ = α·Δt/h² is the diffusion number. The
// backend is built once and kept warm across steps — a warm solve
// returns a cold one's bits (TestBackendSeamContract), so every step's
// history is independently reproducible.
func RunHeat3D(ctx context.Context, m stencil.Mesh, lambda float64, boundary stencil.Boundary, u0 []float64, steps int, o Options) ([]HeatStep, error) {
	op := stencil.Heat3D(m, lambda, boundary)
	return runHeat(ctx, op, lambda, u0, steps, o, func() (solver.Backend, error) { return NewBackend(o, op) })
}

// RunHeat2D is RunHeat3D on a 2D mesh: the host float64 solver, or —
// when o.Backend is Wafer — the 2D block-halo wafer program with block²
// meshpoints per tile (the mesh must tile into block×block). The
// 9-point heat step has zero corner coefficients, so the wafer program
// is exactly the 5-point star spec's schedule.
func RunHeat2D(ctx context.Context, m stencil.Mesh2D, lambda float64, u0 []float64, steps, block int, o Options) ([]HeatStep, error) {
	op := stencil.Heat2D(m, lambda)
	return runHeat(ctx, op, lambda, u0, steps, o, func() (solver.Backend, error) {
		if o.Backend != Wafer {
			return NewBackend(o, op)
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if block <= 0 || block%2 != 0 {
			return nil, fmt.Errorf("core: wafer heat stepping needs an even positive block size, got %d", block)
		}
		if m.NX%block != 0 || m.NY%block != 0 {
			return nil, fmt.Errorf("core: mesh %d×%d does not tile into %d×%d blocks", m.NX, m.NY, block, block)
		}
		return kernels.NewWafer2DBackend(newWafer(o, m.NX/block, m.NY/block), block), nil
	})
}

// runHeat is the stepper both heat runners share: one backend, one run
// of the solve pipeline per step. Checkpoint options are refused: a run
// is many solves, so a Resume blob would restart every step from the
// same checkpoint and a Checkpoint callback could not tell the steps
// apart.
func runHeat(ctx context.Context, op stencil.Operator, lambda float64, u0 []float64, steps int, o Options,
	build func() (solver.Backend, error)) ([]HeatStep, error) {
	if len(u0) != op.N() {
		return nil, fmt.Errorf("core: initial field length %d, want %d", len(u0), op.N())
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs steps > 0, got %d", steps)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("core: heat stepping needs a positive diffusion number, got %g", lambda)
	}
	if err := o.solverOptions().RejectCheckpoint("heat stepping"); err != nil {
		return nil, err
	}
	be, err := build()
	if err != nil {
		return nil, err
	}
	defer release(be)
	u := append([]float64(nil), u0...)
	out := make([]HeatStep, 0, steps)
	for s := 0; s < steps; s++ {
		res, err := SolveOn(ctx, be, op, u, o, nil)
		if err != nil {
			return out, fmt.Errorf("core: heat step %d: %w", s+1, err)
		}
		u = res.X
		out = append(out, HeatStep{U: u, Energy: sumSq(u), Solve: res})
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
