package multiwafer

import (
	"math"

	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/stencilc"
)

// Stats reports a multiwafer solve: the one solve account of
// kernels.BiCGStabEngine, with Wafers the grid's wafer count and
// EdgeIO/Combine the interconnect model's share of the cycles.
type Stats = kernels.WSEStats

// secondsToCycles converts interconnect seconds to wafer cycles,
// rounding up (a partial cycle still blocks the next phase).
func (c *Cluster) secondsToCycles(sec float64) int64 {
	return int64(math.Ceil(sec * c.wafers[0].mach.Cfg.ClockHz))
}

// Solve runs BiCGStab for the mesh-indexed right-hand side bvec with a
// zero initial guess, returning the solution, statistics, and the
// residual history the determinism contract covers. The recurrence is
// kernels.BiCGStabEngine's; the cluster is its substrate (see
// substrate). Checkpoint/resume options are honoured on a 1×1 grid and
// refused on a larger one.
func (c *Cluster) Solve(bvec []fp16.Float16, opts kernels.WSEOptions) ([]fp16.Float16, Stats, error) {
	return c.eng.Solve(bvec, opts)
}

// combineCycles is the level-two cost of one dot: the host's exactly
// rounded combine of every wafer's partials and the scalar's
// re-broadcast, charged as two scalar edge-I/O hops per grid axis step.
func (c *Cluster) combineCycles() int64 {
	if c.Wafers() == 1 {
		return 0
	}
	hops := c.Cfg.Grid.W + c.Cfg.Grid.H - 2
	return c.secondsToCycles(2 * c.Cfg.Interconnect.TransferSeconds(4) * float64(hops))
}

// exchangeHalos copies boundary iterate columns between adjacent
// wafers and returns the modelled edge-I/O cycles: per wafer the four
// faces transfer concurrently (each face is its own I/O complex), so a
// wafer waits for its largest face, and the cluster waits for the
// slowest wafer.
func (c *Cluster) exchangeHalos() int64 {
	z := c.Mesh.NZ
	var worst float64
	for _, wf := range c.wafers {
		var waferSec float64
		for d := stencilc.HaloDir(0); d < stencilc.NumHaloDirs; d++ {
			nb := wf.neighbor[d]
			if nb == nil {
				continue
			}
			n := c.copyFace(wf, nb, d)
			sec := c.Cfg.Interconnect.TransferSeconds(n * z * 2) // fp16 = 2 bytes
			if sec > waferSec {
				waferSec = sec
			}
		}
		if waferSec > worst {
			worst = waferSec
		}
	}
	if worst == 0 {
		return 0
	}
	return c.secondsToCycles(worst)
}

// copyFace fills wf's halo columns along direction d from neighbour
// wafer nb's boundary iterate columns, returning the column count.
func (c *Cluster) copyFace(wf, nb *wafer, d stencilc.HaloDir) int {
	count := 0
	for i := range wf.mach.Tiles {
		gx, gy := wf.spmv.GlobalCoord(i)
		switch d {
		case stencilc.HaloXP:
			gx++
		case stencilc.HaloXM:
			gx--
		case stencilc.HaloYP:
			gy++
		case stencilc.HaloYM:
			gy--
		}
		if gx < nb.x0 || gx >= nb.x0+nb.w || gy < nb.y0 || gy >= nb.y0+nb.h {
			continue // not a boundary tile for this face
		}
		ti := (gy-nb.y0)*nb.w + (gx - nb.x0)
		copy(wf.spmv.Halo(i, d, 1), nb.spmv.Iterate(ti))
		count++
	}
	return count
}
