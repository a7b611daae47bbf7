package multiwafer

import (
	"fmt"
	"sync"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
)

// Backend adapts the wafer cluster to the solver.Backend3D seam, so
// host code that is generic over execution substrates (core.Solve, the
// examples) can run the multiwafer engine without caring where the
// arithmetic happens. Each Solve3D call builds a fresh cluster, runs
// the mixed-precision solve, and releases the simulation pools. A
// Backend is safe for concurrent Solve3D calls; use Stats to read the
// most recent solve's cycle account.
type Backend struct {
	Grid         Topology
	Interconnect Interconnect // zero value = DefaultInterconnect
	Workers      int

	mu   sync.Mutex
	last *Stats
}

// Name implements solver.Backend3D.
func (b *Backend) Name() string { return fmt.Sprintf("multiwafer/%s", b.Grid) }

// Stats returns a copy of the most recent completed solve's cycle
// account (the solver.Stats seam has no slot for simulated cycles) and
// whether any solve has completed. It is safe to call concurrently
// with Solve3D.
func (b *Backend) Stats() (Stats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last == nil {
		return Stats{}, false
	}
	return *b.last, true
}

// Solve3D implements solver.Backend3D. The operator must be
// unit-diagonal (call Normalize first) and x0 must be zero — the wafer
// solve starts from a zero guess, like the paper's.
func (b *Backend) Solve3D(op *stencil.Op7, bvec, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	if err := opts.RejectCheckpoint(b.Name()); err != nil {
		return nil, solver.Stats{}, err
	}
	if !op.IsUnitDiagonal() {
		return nil, solver.Stats{}, fmt.Errorf("multiwafer: operator must be unit-diagonal")
	}
	for _, v := range x0 {
		if v != 0 {
			return nil, solver.Stats{}, fmt.Errorf("multiwafer: backend requires a zero initial guess")
		}
	}
	c, err := New(Config{Grid: b.Grid, Interconnect: b.Interconnect, Workers: b.Workers}, stencil.NewOp7Half(op))
	if err != nil {
		return nil, solver.Stats{}, err
	}
	defer c.Close()
	x16, st, err := c.Solve(fp16.FromFloat64Slice(bvec), kernels.WSEOptions{Ctx: opts.Ctx, MaxIter: opts.MaxIter, Tol: opts.Tol})
	if err != nil {
		return nil, solver.Stats{}, err
	}
	b.mu.Lock()
	b.last = &st
	b.mu.Unlock()
	return fp16.ToFloat64Slice(x16), st.SolverStats(opts.RecordHistory), nil
}
