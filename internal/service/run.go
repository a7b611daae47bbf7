package service

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/solver"
)

// errSuspended flows out of a wafer solve's checkpoint callback when
// the server is draining: the solve aborts at an iteration boundary
// with its state already spooled, and the job parks as suspended
// instead of failed.
var errSuspended = errors.New("service: job suspended for shutdown")

// runSolve executes one job through core's one solve pipeline — so a
// job returns the bits core.Solve returns by construction
// (TestServiceParallelMixedBackends). The host backend (local) holds
// no machine state and is built per job; a simulated
// backend is checked out of the warm cache, or asked of core on a miss,
// and put back afterwards: it reloads the next job's coefficients
// itself (the solver.Backend contract of internal/kernels and
// internal/multiwafer). progress observes every iteration for /stream.
func (s *Server) runSolve(ctx context.Context, p core.Problem, o core.Options, progress func(iter int, rel float64)) (core.Result, error) {
	m := p.Op.M
	key := machineKey{backend: o.Backend, nx: m.NX, ny: m.NY, nz: m.NZ}
	switch o.Backend {
	case core.Wafer:
		key.workers = o.Wafer.Shards()
	case core.MultiWafer:
		// Cluster wafers run fast-forward whatever Workers says, so
		// workers is not part of a cluster's key.
		key.grid = o.MultiWafer.Grid
		if key.grid.W == 0 {
			key.grid = multiwafer.Topology{W: 1, H: 1}
		}
	default:
		return core.SolveContext(ctx, p, o)
	}
	be := s.cache.checkout(key)
	if be == nil {
		fresh, err := core.NewBackend(o, p.Op)
		if err != nil {
			return core.Result{}, err
		}
		be = fresh.(*kernels.WaferBackend)
	}
	res, err := core.SolveOn(ctx, be, p.Op, p.B, o, progress)
	if err != nil && ctx.Err() == nil && !errors.Is(err, errSuspended) {
		// Only a solve that ended at an iteration boundary — finished,
		// canceled or suspended — leaves machines worth keeping; a failed
		// build or a wedged fabric does not.
		be.Close()
		return res, err
	}
	s.cache.put(key, be)
	return res, err
}

// runFallback is the graceful-degradation path: a wafer or multiwafer
// job whose backend's circuit breaker is open runs the same pipeline on
// the host in chunked-mixed precision instead. The chunk size NZ makes
// the host reduction order match the per-tile wafer dots combined by
// exact.ExactSum32, so for the multiwafer backend (and the halo
// wafer engine) the residual history and solution are bit-identical to
// the simulated solve — core.TestAllBackendsBitIdentical pins the
// equivalence, and TestServiceBreakerFallback pins it end to end. The default
// single-wafer engine's FIFO-pipeline SpMV associates its fp16 sums
// differently, so its fallback is deterministic and lands on the same
// fp16 accuracy plateau but can differ in last-place bits; the job's
// result records Fallback so clients can tell.
func (s *Server) runFallback(ctx context.Context, p core.Problem, o core.Options, progress func(iter int, rel float64)) (core.Result, error) {
	be := solver.Host{Context: solver.NewMixedChunked(p.Op.M.NZ)}
	return core.SolveOn(ctx, be, p.Op, p.B, core.Options{MaxIter: o.MaxIter, Tol: o.Tol}, progress)
}
