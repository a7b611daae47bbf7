package multiwafer

import (
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencil"
)

// NewBackend adapts a wafer cluster on grid to the solver.Backend seam,
// so host code that is generic over execution substrates (core's
// pipeline, the daemon's warm cache) can run the multiwafer engine
// without caring where the arithmetic happens. It is a
// kernels.WaferBackend like the one-wafer adapters: the first Solve
// builds the Cluster, later ones reload its coefficients (reuse-stable
// with LoadCoeff alone, TestClusterWarmReuseBitIdentical), and Close
// releases the simulation pools. The system must be 7-point and
// unit-diagonal, and the right-hand side is converted to fp16 unscaled.
// Checkpoint and resume are refused on every grid, 1×1 included.
func NewBackend(grid Topology) *kernels.WaferBackend {
	name := "multiwafer/" + grid.String()
	var c *Cluster
	return kernels.NewBackend(name, false,
		func() {
			if c != nil {
				c.Close()
			}
		},
		func(op *stencil.Op7) (*stencil.Op7Half, error) { return stencil.NewOp7Half(op), nil },
		func(h *stencil.Op7Half) (refusing, error) {
			var err error
			c, err = New(Config{Grid: grid}, h)
			return refusing{c, name}, err
		})
}

// refusing is the backend's cluster: Cluster.Solve, with every
// checkpoint and resume option refused.
type refusing struct {
	*Cluster
	name string
}

func (r refusing) Solve(b []fp16.Float16, opts kernels.WSEOptions) ([]fp16.Float16, Stats, error) {
	if err := opts.RejectCheckpoint(r.name); err != nil {
		return nil, Stats{}, err
	}
	return r.Cluster.Solve(b, opts)
}
