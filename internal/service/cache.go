package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/multiwafer"
	"repro/internal/solver"
)

// machineKey identifies a reusable simulated machine: everything that
// is baked into the built program — fabric shape, Z depth, stepping
// engine, wafer grid — but not the coefficients (reloaded by every
// Solve) or the right-hand side (re-initialized by every Solve).
type machineKey struct {
	backend             core.Backend // Wafer or MultiWafer
	nx, ny, nz, workers int
	grid                multiwafer.Topology // multiwafer only
}

// warmBackend is one pooled simulated backend: a solver.Backend that
// holds its built machines between solves and releases them on Close
// (kernels.WaferBackend, multiwafer.Backend). What a warm solve must
// do to reproduce a cold machine's bits — the Listing 1 pipeline
// rewinds to its pristine capture, the cluster only reloads
// coefficients — is the backend's own business.
type warmBackend interface {
	solver.Backend
	Close()
}

// machineCache pools warm machines across jobs. Building a machine —
// routing tables, task programs, memory layout — dominates small-job
// latency; a cache hit reduces per-job setup to a snapshot restore plus
// a coefficient rewrite. Checked-out machines are not tracked: the
// caller must return them with put.
type machineCache struct {
	mu      sync.Mutex
	idle    map[machineKey][]warmBackend
	idleN   int
	maxIdle int
	closed  bool

	hits, misses atomic.Int64
}

func newMachineCache(maxIdle int) *machineCache {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	return &machineCache{idle: make(map[machineKey][]warmBackend), maxIdle: maxIdle}
}

// checkout pops an idle backend for the key (a hit), or returns nil (a
// miss) — the caller builds cold and puts the backend back afterwards.
func (c *machineCache) checkout(key machineKey) warmBackend {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.idle[key]
	n := len(list)
	if n == 0 {
		c.misses.Add(1)
		return nil
	}
	c.idle[key] = list[:n-1]
	c.idleN--
	c.hits.Add(1)
	return list[n-1]
}

// put returns a backend to the pool, closing it instead if the pool is
// full or the cache is closed.
func (c *machineCache) put(key machineKey, w warmBackend) {
	c.mu.Lock()
	if c.closed || c.idleN >= c.maxIdle {
		c.mu.Unlock()
		w.Close()
		return
	}
	c.idle[key] = append(c.idle[key], w)
	c.idleN++
	c.mu.Unlock()
}

// stats returns the lifetime hit/miss counters.
func (c *machineCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// close shuts down every idle machine's simulation pool. Machines
// checked out at close time are closed when put back.
func (c *machineCache) close() {
	c.mu.Lock()
	c.closed = true
	lists := c.idle
	c.idle = make(map[machineKey][]warmBackend)
	c.idleN = 0
	c.mu.Unlock()
	for _, list := range lists {
		for _, w := range list {
			w.Close()
		}
	}
}
