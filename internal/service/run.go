package service

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// errSuspended flows out of a wafer solve's checkpoint callback when
// the server is draining: the solve aborts at an iteration boundary
// with its state already spooled, and the job parks as suspended
// instead of failed.
var errSuspended = errors.New("service: job suspended for shutdown")

// solveHooks carries the service-side instrumentation of one solve:
// live progress for /stream, and — wafer backend only — the suspend
// checkpoint machinery and a resume blob from a previous run.
type solveHooks struct {
	progress        func(iter int, rel float64)
	checkpointEvery int
	checkpoint      func([]byte) error
	resume          []byte
}

// runSolve executes one job. Host backends (local, cluster) hold no
// machine state and go straight through core.Solve. The simulated
// backends replicate core.Solve's exact sequence — normalize, scale the
// RHS, fp16-convert, solve, true residual — but draw the machine from
// the warm cache instead of building one per call. The replication is
// load-bearing for the API contract "a job returns the bits core.Solve
// returns": TestServiceBitIdenticalToDirectSolve pins it, and the
// warm-reuse half rests on kernels.TestWarmSolverReuseBitIdentical /
// multiwafer.TestClusterWarmReuseBitIdentical.
func (s *Server) runSolve(ctx context.Context, p core.Problem, o core.Options, h solveHooks) (core.Result, error) {
	var res core.Result
	if err := o.Validate(); err != nil {
		return res, err
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	switch o.Backend {
	case core.Local, core.Cluster:
		return core.SolveContext(ctx, p, o)
	}

	norm, diag := p.Op.Normalize()
	sb := stencil.ScaleRHS(p.B, diag)
	op := stencil.NewOp7Half(norm)
	m := norm.M

	switch o.Backend {
	case core.Wafer:
		key := machineKey{backend: core.Wafer, nx: m.NX, ny: m.NY, nz: m.NZ, workers: o.Wafer.Workers}
		w, err := s.cache.checkout(key, op)
		if err != nil {
			return res, err
		}
		if w == nil {
			cfg := wse.CS1(m.NX, m.NY)
			cfg.Workers = o.Wafer.Workers
			mach := wse.New(cfg)
			solver, err := kernels.NewBiCGStabWSE(mach, op)
			if err != nil {
				mach.Close()
				return res, err
			}
			pristine, err := solver.Pristine()
			if err != nil {
				mach.Close()
				return res, err
			}
			w = &warmMachine{key: key, mach: mach, wafer: solver, pristine: pristine}
		}
		defer s.cache.put(w)
		x16, st, err := w.wafer.Solve(fp16.FromFloat64Slice(sb), kernels.WSEOptions{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol,
			CheckpointEvery: h.checkpointEvery,
			Checkpoint:      h.checkpoint,
			Resume:          h.resume,
			Progress:        h.progress,
		})
		if err != nil {
			return res, err
		}
		res = core.NewResult(fp16.ToFloat64Slice(x16), st.SolverStats(true), core.TelemetryFromWSE(st))

	case core.MultiWafer:
		grid := o.MultiWafer.Grid
		if grid.W == 0 {
			grid = multiwafer.Topology{W: 1, H: 1}
		}
		key := machineKey{backend: core.MultiWafer, nx: m.NX, ny: m.NY, nz: m.NZ,
			workers: o.MultiWafer.Workers, grid: grid}
		w, err := s.cache.checkout(key, op)
		if err != nil {
			return res, err
		}
		if w == nil {
			cl, err := multiwafer.New(multiwafer.Config{Grid: grid, Workers: o.MultiWafer.Workers}, op)
			if err != nil {
				return res, err
			}
			w = &warmMachine{key: key, cluster: cl}
		}
		defer s.cache.put(w)
		x16, st, err := w.cluster.Solve(fp16.FromFloat64Slice(sb), kernels.WSEOptions{
			Ctx:     ctx,
			MaxIter: o.MaxIter, Tol: o.Tol, Progress: h.progress,
		})
		if err != nil {
			return res, err
		}
		res = core.NewResult(fp16.ToFloat64Slice(x16), st.SolverStats(true), core.TelemetryFromMultiWafer(st))
	}
	res.TrueResidual = norm.ResidualNorm(res.X, sb) / stencil.Norm2(sb)
	return res, nil
}

// runFallback is the graceful-degradation path: a wafer or multiwafer
// job whose backend's circuit breaker is open solves on the host in
// chunked-mixed precision instead. The chunk size NZ makes the host
// reduction order match the per-tile wafer dots combined by
// cluster.ExactSum32, so for the multiwafer backend (and the halo
// wafer engine) the residual history and solution are bit-identical to
// the simulated solve — core.TestAllBackendsBitIdentical pins the
// equivalence, and TestServiceFallback pins it end to end. The default
// single-wafer engine's FIFO-pipeline SpMV associates its fp16 sums
// differently, so its fallback is deterministic and lands on the same
// fp16 accuracy plateau but can differ in last-place bits; the job's
// result records Fallback so clients can tell.
func (s *Server) runFallback(ctx context.Context, p core.Problem, o core.Options, h solveHooks) (core.Result, error) {
	var res core.Result
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	norm, diag := p.Op.Normalize()
	sb := stencil.ScaleRHS(p.B, diag)
	m := norm.M
	be := solver.HostBackend3D{Context: solver.NewMixedChunked(m.NZ)}
	x, st, err := be.Solve3D(norm, sb, make([]float64, len(sb)), solver.Options{
		Ctx:     ctx,
		MaxIter: o.MaxIter, Tol: o.Tol, RecordHistory: true,
	})
	if err != nil {
		return res, err
	}
	if h.progress != nil {
		for i, rel := range st.History {
			h.progress(i+1, rel)
		}
	}
	res = core.NewResult(x, st, core.Telemetry{Backend: core.Local.String(), Precision: "mixed-chunked"})
	res.TrueResidual = norm.ResidualNorm(res.X, sb) / stencil.Norm2(sb)
	return res, nil
}
