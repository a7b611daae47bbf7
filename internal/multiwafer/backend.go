package multiwafer

import (
	"fmt"
	"sync"

	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
)

// Backend adapts the wafer cluster to the solver.Backend seam, so host
// code that is generic over execution substrates (core's pipeline, the
// daemon's warm cache) can run the multiwafer engine without caring
// where the arithmetic happens. It has the contract of the one-wafer
// adapters in internal/kernels: the first Solve builds the Cluster,
// later ones reload its coefficients (reuse-stable with LoadCoeff
// alone, TestClusterWarmReuseBitIdentical), LastStats reads the most
// recent solve's cycle account, Close releases the simulation pools.
// The right-hand side is converted to fp16 unscaled. A Backend is safe
// for concurrent use: solves on its one cluster serialise.
type Backend struct {
	Grid         Topology
	Interconnect Interconnect // zero value = DefaultInterconnect
	Workers      int

	mu      sync.Mutex
	cluster *Cluster
	last    Stats
}

// Name implements solver.Backend.
func (b *Backend) Name() string { return fmt.Sprintf("multiwafer/%s", b.Grid) }

// LastStats returns the most recent completed solve's cycle account
// (solver.Stats has no slot for simulated cycles); the zero value
// before any. It is safe to call concurrently with Solve.
func (b *Backend) LastStats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// Close releases the cluster's simulation pools, once no Solve is
// running.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cluster != nil {
		b.cluster.Close()
	}
}

// Solve implements solver.Backend for the 7-point operator, which must
// be unit-diagonal (call Normalize first); x0 must be zero — the wafer
// solve starts from a zero guess, like the paper's.
func (b *Backend) Solve(a stencil.Operator, bvec, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	op, ok := a.(*stencil.Op7)
	if !ok {
		return nil, solver.Stats{}, fmt.Errorf("multiwafer: %s backend cannot run a %T system", b.Name(), a)
	}
	if err := opts.RejectCheckpoint(b.Name()); err != nil {
		return nil, solver.Stats{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	x, st, err := kernels.SolveFloat64(a, bvec, x0, opts, false, func() (kernels.SolveFunc, error) {
		half := stencil.NewOp7Half(op)
		if b.cluster == nil {
			c, err := New(Config{Grid: b.Grid, Interconnect: b.Interconnect, Workers: b.Workers}, half)
			if err != nil {
				return nil, err
			}
			b.cluster = c
		} else if err := b.cluster.LoadCoeff(half); err != nil {
			return nil, err
		}
		return b.cluster.Solve, nil
	})
	if err != nil {
		return nil, solver.Stats{}, err
	}
	b.last = st
	return x, st.SolverStats(opts.RecordHistory), nil
}
