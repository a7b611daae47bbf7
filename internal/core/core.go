// Package core is the public façade of the reproduction: it ties a
// stencil problem to one of three execution backends —
//
//   - Local: the sequential reference solver in a chosen precision
//     (float64, float32, or the CS-1's mixed fp16/fp32);
//   - Wafer: the cycle-level CS-1 simulator (fabric + cores + kernels),
//     returning per-phase cycle counts alongside the solution;
//   - MultiWafer: a grid of cycle-simulated wafers coupled by the
//     edge-I/O interconnect model.
//
// Every solve is one pipeline over one seam: NewBackend picks a
// solver.Backend from Options and the operator's type, and SolveOn
// normalizes, scales, solves, and assembles the Result — Solve,
// SolveStar, the heat steppers and the wsesimd daemon (which keeps the
// simulated backends warm between jobs) all run exactly that.
//
// Options carries the backend selection plus per-backend config
// sections, validated in one place by Options.Validate; Result carries
// the solution plus a uniformly serializable Telemetry — the same
// request/response shapes the wsesimd service layer puts on the wire.
// The experiment runners in experiments.go regenerate every table and
// figure of the paper from these backends plus the calibrated models;
// the CPU baseline of Figures 7–8 is internal/cluster's Joule timing
// model, not a solve.
package core

import (
	"context"
	"fmt"
	"math/rand"

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

// generators are the named 7-point model operators every entry point
// offers (wsesim -problem, the daemon's JobSpec.Problem).
var generators = map[string]func(stencil.Mesh) *stencil.Op7{
	"poisson": func(m stencil.Mesh) *stencil.Op7 { return stencil.Poisson(m, 1) },
	"momentum": func(m stencil.Mesh) *stencil.Op7 {
		return stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	},
	"random": func(m stencil.Mesh) *stencil.Op7 {
		return stencil.RandomDiagDominant(m, 1.5, rand.New(rand.NewSource(1)))
	},
}

// DefaultSeed is the exact-solution seed of an entry point that was
// given none: wsesim's bicgstab kernel, a JobSpec with seed 0.
const DefaultSeed = 7

// CheckProblemName reports whether GenerateProblem knows name.
func CheckProblemName(name string) error {
	if generators[name] == nil {
		return fmt.Errorf("unknown problem %q (want poisson, momentum or random)", name)
	}
	return nil
}

// GenerateProblem builds the named model system on m: the operator,
// an exact solution drawn uniformly from [0, 1) by seed, and b = A·x.
// The CLI and the daemon both call it, so a job and a wsesim run with
// the same name, mesh and seed solve bit-equal systems.
func GenerateProblem(name string, m stencil.Mesh, seed int64) (Problem, error) {
	if err := CheckProblemName(name); err != nil {
		return Problem{}, err
	}
	xe := make([]float64, m.N())
	rng := rand.New(rand.NewSource(seed))
	for i := range xe {
		xe[i] = rng.Float64()
	}
	p, _ := NewProblem(generators[name](m), xe)
	return p, nil
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

// Solve runs BiCGStab on the selected backend. It validates o first;
// invalid options fail with a *OptionError before any work happens.
func Solve(p Problem, o Options) (Result, error) {
	return SolveContext(nil, p, o)
}

// newWafer builds the single-wafer machine from validated options: the
// CS-1 hardware shape at the given fabric extent, plus the
// simulation-throughput knobs (fast-forward's shard count, or an
// explicit core-stepping engine).
func newWafer(o Options, w, h int) *wse.Machine {
	cfg := wse.CS1(w, h)
	cfg.Workers = o.Wafer.Shards()
	cfg.Engine, _ = wse.ParseEngine(o.Wafer.Engine) // Validate rejected unknown names; "" is EngineAuto
	return wse.New(cfg)
}

// SolveContext is Solve with cooperative cancellation: every backend
// polls ctx at iteration boundaries (the only points where a simulated
// machine is guaranteed idle) and unwinds with an error wrapping
// ctx.Err(), so errors.Is against context.Canceled or
// context.DeadlineExceeded classifies the outcome. A nil ctx means no
// cancellation, identical to Solve.
func SolveContext(ctx context.Context, p Problem, o Options) (Result, error) {
	return solveOnce(ctx, p.Op, p.B, o)
}

// solveOnce is a one-shot solve: a backend built for this system, one
// run of the pipeline, the backend released.
func solveOnce(ctx context.Context, a stencil.Operator, b []float64, o Options) (Result, error) {
	be, err := NewBackend(o, a)
	if err != nil {
		return Result{}, err
	}
	defer release(be)
	return SolveOn(ctx, be, a, b, o, nil)
}

// release closes a backend that holds machines; the host ones hold
// nothing.
func release(be solver.Backend) {
	if c, ok := be.(interface{ Close() }); ok {
		c.Close()
	}
}

// NewBackend picks the execution backend for one kind of system from
// o.Backend and the operator's type: the host solver in the selected
// precision, a single-wafer adapter (Listing 1 for the 7-point
// operator, a stencil-compiled program for a star) on a machine of the
// mesh's X×Y extent, or the multi-wafer grid. It validates o first. The
// simulated backends build their machines on the first Solve and hold
// them until Close — a caller that keeps one warm (the daemon's cache)
// feeds it any number of systems on the same mesh through SolveOn. The
// 2D 9-point wafer program needs a block size no Options field carries;
// RunHeat2D builds that backend itself.
func NewBackend(o Options, a stencil.Operator) (solver.Backend, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	_, is7 := a.(*stencil.Op7)
	switch o.Backend {
	case Local:
		if !is7 && o.Local.Precision != F64 {
			return nil, &OptionError{"Local.Precision", fmt.Sprintf(
				"%T systems run in fp64 on the host (got %s); use the wafer backend for the mixed-precision path", a, o.Local.Precision)}
		}
		return solver.Host{Context: o.Local.Precision.context()}, nil
	case Wafer:
		switch a := a.(type) {
		case *stencil.Op7:
			return kernels.NewWafer3DBackend(newWafer(o, a.M.NX, a.M.NY)), nil
		case *stencil.OpStar:
			return kernels.NewWaferStarBackend(newWafer(o, a.M.NX, a.M.NY), starSpec(a)), nil
		}
	case MultiWafer:
		if is7 {
			grid := o.MultiWafer.Grid
			if grid.W == 0 {
				grid = multiwafer.Topology{W: 1, H: 1}
			}
			return multiwafer.NewBackend(grid), nil
		}
	}
	return nil, &OptionError{"Backend", fmt.Sprintf("the %s backend does not run %T systems", o.Backend, a)}
}

// solverOptions maps validated options to the seam's: the iteration
// budget (0 means 200), the tolerance, the history every Result
// carries, and the wafer section's checkpoint/resume fields.
func (o Options) solverOptions() solver.Options {
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	return solver.Options{MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
		CheckpointEvery: o.Wafer.CheckpointEvery, Checkpoint: o.Wafer.Checkpoint, Resume: o.Wafer.Resume}
}

// SolveOn is the one solve pipeline — every entry point of this package
// and every job of the daemon runs it: normalize the operator, scale
// the right-hand side, solve from a zero guess on be, assemble the
// Result with the backend's telemetry, and diagnose the true residual
// in float64. be is NewBackend(o, a)'s, fresh or kept warm by the
// caller, which also releases it. progress, if non-nil, observes every
// iteration (solver.Options.Progress).
func SolveOn(ctx context.Context, be solver.Backend, a stencil.Operator, b []float64, o Options,
	progress func(iter int, rel float64)) (Result, error) {
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	norm, diag := a.Normalized()
	sb := stencil.ScaleRHS(b, diag)
	sopts := o.solverOptions()
	sopts.Ctx, sopts.Progress = ctx, progress
	x, st, err := be.Solve(norm, sb, make([]float64, len(sb)), sopts)
	if err != nil {
		return Result{}, err
	}
	return Result{X: x, Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown,
		History: st.History, Telemetry: telemetryOf(be, o.Backend),
		TrueResidual: stencil.ResidualNorm(norm, x, sb) / stencil.Norm2(sb)}, nil
}
