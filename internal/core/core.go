// Package core is the public façade of the reproduction: it ties a
// stencil problem to one of four execution backends —
//
//   - Local: the sequential reference solver in a chosen precision
//     (float64, float32, or the CS-1's mixed fp16/fp32);
//   - Wafer: the cycle-level CS-1 simulator (fabric + cores + kernels),
//     returning per-phase cycle counts alongside the solution;
//   - Cluster: the rank-parallel (goroutines-as-MPI) Joule-style solve;
//   - MultiWafer: a grid of cycle-simulated wafers coupled by the
//     edge-I/O interconnect model.
//
// Options carries the backend selection plus per-backend config
// sections, validated in one place by Options.Validate; Result carries
// the solution plus a uniformly serializable Telemetry — the same
// request/response shapes the wsesimd service layer puts on the wire.
// The experiment runners in experiments.go regenerate every table and
// figure of the paper from these backends plus the calibrated models.
package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// Problem is a linear system from a 7-point stencil discretization.
type Problem struct {
	Op *stencil.Op7 // need not be normalized; Solve normalizes
	B  []float64
}

// NewProblem builds a problem with b = A·xexact, returning the problem
// and xexact (handy for accuracy checks).
func NewProblem(op *stencil.Op7, xexact []float64) (Problem, []float64) {
	b := make([]float64, op.M.N())
	op.Apply(b, xexact)
	return Problem{Op: op, B: b}, xexact
}

// Result reports a solve.
type Result struct {
	X          []float64
	Iterations int
	Converged  bool
	Breakdown  string
	// History is the per-iteration iterative relative residual.
	History []float64
	// TrueResidual is ‖b − Ax‖/‖b‖ in float64 against the original
	// operator.
	TrueResidual float64
	// Telemetry is the backend's instrumentation in one serializable
	// shape, populated by every backend.
	Telemetry Telemetry
}

// NewResult assembles a Result from a backend's solve outcome and its
// telemetry — the one place the two are copied in, for every backend
// here and for the service's warm-machine solves. TrueResidual is the
// caller's to fill: it needs the operator.
func NewResult(x []float64, st solver.Stats, tel Telemetry) Result {
	return Result{X: x, Iterations: st.Iterations, Converged: st.Converged,
		Breakdown: st.Breakdown, History: st.History, Telemetry: tel}
}

// Solve runs BiCGStab on the selected backend. It validates o first;
// invalid options fail with a *OptionError before any work happens.
func Solve(p Problem, o Options) (Result, error) {
	return SolveContext(nil, p, o)
}

// waferConfig builds the single-wafer machine configuration from
// validated options: the CS-1 hardware shape at the given fabric
// extent, plus the simulation-throughput knobs (sharding workers, or
// an explicit core-stepping engine).
func waferConfig(o Options, w, h int) wse.Config {
	cfg := wse.CS1(w, h)
	cfg.Workers = o.Wafer.Workers
	if o.Wafer.Engine != "" {
		e, err := wse.ParseEngine(o.Wafer.Engine)
		if err != nil {
			// Validate already rejected unknown names; this is a
			// programming error, not an input error.
			panic(err)
		}
		cfg.Engine = e
	}
	return cfg
}

// SolveContext is Solve with cooperative cancellation: every backend
// polls ctx at iteration boundaries (the only points where a simulated
// machine is guaranteed idle) and unwinds with an error wrapping
// ctx.Err(), so errors.Is against context.Canceled or
// context.DeadlineExceeded classifies the outcome. A nil ctx means no
// cancellation, identical to Solve.
func SolveContext(ctx context.Context, p Problem, o Options) (Result, error) {
	var res Result
	if err := o.Validate(); err != nil {
		return res, err
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	norm, diag := p.Op.Normalize()
	sb := stencil.ScaleRHS(p.B, diag)
	switch o.Backend {
	case Local:
		actx := o.Local.Precision.context()
		a := actx.NewOperator(norm)
		bv := actx.NewVector(len(sb))
		for i, v := range sb {
			bv.Set(i, v)
		}
		xv := actx.NewVector(len(sb))
		st, err := solver.BiCGStab(actx, a, bv, xv, solver.Options{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
		})
		if err != nil {
			return res, err
		}
		res = NewResult(xv.Float64(), st, Telemetry{Backend: Local.String(), Precision: o.Local.Precision.String()})

	case Wafer:
		m := norm.M
		mach := wse.New(waferConfig(o, m.NX, m.NY))
		defer mach.Close()
		w, err := kernels.NewBiCGStabWSE(mach, stencil.NewOp7Half(norm))
		if err != nil {
			return res, err
		}
		x16, st, err := w.Solve(fp16.FromFloat64Slice(sb), kernels.WSEOptions{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol,
			CheckpointEvery: o.Wafer.CheckpointEvery,
			Checkpoint:      o.Wafer.Checkpoint,
			Resume:          o.Wafer.Resume,
		})
		if err != nil {
			return res, err
		}
		res = NewResult(fp16.ToFloat64Slice(x16), st.SolverStats(true), TelemetryFromWSE(st))

	case MultiWafer:
		grid := o.MultiWafer.Grid
		if grid.W == 0 {
			grid = multiwafer.Topology{W: 1, H: 1}
		}
		be := &multiwafer.Backend{Grid: grid, Workers: o.MultiWafer.Workers}
		x, st, err := be.Solve3D(norm, sb, make([]float64, len(sb)), solver.Options{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
		})
		if err != nil {
			return res, err
		}
		mw, _ := be.Stats() // the solve just completed, so they are there
		res = NewResult(x, st, TelemetryFromMultiWafer(mw))

	case Cluster:
		ranks := o.Cluster.Ranks
		if ranks == 0 {
			ranks = 8
		}
		x, hist, err := cluster.ParallelBiCGStabContext(ctx, norm, sb, ranks, o.MaxIter, o.Tol)
		if err != nil {
			return res, err
		}
		res.X = x
		res.History = hist
		res.Iterations = len(hist)
		res.Converged = o.Tol > 0 && len(hist) > 0 && hist[len(hist)-1] <= o.Tol
		res.Telemetry = Telemetry{Backend: Cluster.String(), Ranks: ranks}
	}
	res.TrueResidual = norm.ResidualNorm(res.X, sb) / stencil.Norm2(sb)
	return res, nil
}
