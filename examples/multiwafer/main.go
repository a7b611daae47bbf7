// Multi-wafer scaling study: the paper closes by arguing one CS-1
// replaces a CPU cluster; this study asks what a cluster *of wafers*
// buys. It runs three legs:
//
//  1. a live simulated sweep of one mesh across wafer grids (cycle-exact:
//     each wafer fast-forwards, its SpMVs timed by the exchange replay),
//     checking the backend's contract — residual histories bit-identical
//     for every decomposition — while measuring where the cycles go;
//  2. the calibrated model's strong-scaling sweep at paper scale: the 3D
//     mapping is X×Y-parallel, so cutting a one-wafer mesh finer cannot
//     go faster — the sweep prices the edge-I/O halos and the exact
//     two-level combine against the smaller on-wafer AllReduce;
//  3. the weak-scaling sweep: each wafer keeps a full 600×595 extent, so
//     a 4×4 grid solves a 2400×2380×1536 mesh (8.8 billion points,
//     ~16× anything one wafer can hold) at a modelled ~3.4× the
//     single-wafer iteration time — capacity is what scale-out buys.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/multiwafer"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

func main() {
	nx := flag.Int("nx", 16, "live-sweep mesh width (and fabric extent before cutting)")
	ny := flag.Int("ny", 16, "live-sweep mesh height")
	nz := flag.Int("nz", 32, "live-sweep Z points per tile (even)")
	iters := flag.Int("iters", 4, "BiCGStab iterations per live solve")
	flag.Parse()

	// ---- Leg 1: live simulated sweep.
	m := stencil.Mesh{NX: *nx, NY: *ny, NZ: *nz}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	rng := rand.New(rand.NewSource(7))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	p, _ := core.NewProblem(op, xe)

	fmt.Printf("live simulation — %v mesh, %d iterations per grid\n", m, *iters)
	fmt.Printf("  %-6s %10s %8s %10s %10s %10s %8s   %s\n",
		"grid", "cyc/iter", "spmv", "allreduce", "edge-I/O", "combine", "comm%", "history[last]")
	var ref []float64
	for _, grid := range []multiwafer.Topology{{W: 1, H: 1}, {W: 2, H: 1}, {W: 2, H: 2}, {W: 4, H: 1}} {
		if grid.W > m.NX || grid.H > m.NY {
			continue
		}
		res, err := core.Solve(p, core.Options{
			Backend: core.MultiWafer, MaxIter: *iters,
			MultiWafer: core.MultiWaferOptions{Grid: grid},
		})
		if err != nil {
			log.Fatal(err)
		}
		pi := res.Telemetry.PerIteration
		fmt.Printf("  %-6s %10d %8d %10d %10d %10d %7.0f%%   %.9e\n",
			grid, pi.Total(), pi.SpMV, pi.AllReduce, pi.EdgeIO, pi.Combine,
			100*float64(pi.Communication())/float64(pi.Total()),
			res.History[len(res.History)-1])
		if ref == nil {
			ref = res.History
		} else {
			for i := range ref {
				if res.History[i] != ref[i] {
					log.Fatalf("grid %s: residual history diverged from 1x1 at iteration %d: %g vs %g",
						grid, i+1, res.History[i], ref[i])
				}
			}
		}
	}
	fmt.Printf("  residual histories bit-identical across all grids ✓\n\n")

	// ---- Legs 2 and 3: calibrated projections at paper scale.
	model := perfmodel.PaperModel()
	io := perfmodel.DefaultEdgeIO()
	mesh, _, _ := perfmodel.Headline()
	grids := [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}}

	fmt.Printf("strong scaling (model, η=%.3f) — fixed %d×%d×%d mesh cut across wafer grids\n",
		perfmodel.PaperEta, mesh.X, mesh.Y, mesh.Z)
	fmt.Printf("  %-6s %8s %12s %9s %11s %7s\n", "grid", "wafers", "µs/iter", "speedup", "efficiency", "comm%")
	for _, pt := range model.MultiWaferScaling(mesh.X, mesh.Y, mesh.Z, grids, 1.1e9, io) {
		fmt.Printf("  %dx%-4d %8d %12.2f %9.2f %11.2f %6.0f%%\n",
			pt.GridW, pt.GridH, pt.Wafers, pt.IterMicros, pt.Speedup, pt.Efficiency,
			100*pt.Breakdown.CommFraction())
	}
	fmt.Printf("  (X×Y is already parallel on one wafer: finer cuts only buy a smaller\n")
	fmt.Printf("   AllReduce, and pay halos + combine latency for it)\n\n")

	fmt.Printf("weak scaling (model) — %d×%d per wafer, mesh grows with the grid\n", mesh.X, mesh.Y)
	fmt.Printf("  %-6s %8s %14s %12s %12s %7s\n", "grid", "wafers", "mesh", "µs/iter", "throughput×", "comm%")
	for _, pt := range model.MultiWaferWeakScaling(mesh.X, mesh.Y, mesh.Z, grids, 1.1e9, io) {
		fmt.Printf("  %dx%-4d %8d %7dx%-6d %12.2f %12.2f %6.0f%%\n",
			pt.GridW, pt.GridH, pt.Wafers, pt.GridW*mesh.X, pt.GridH*mesh.Y,
			pt.IterMicros, pt.Speedup, 100*pt.Breakdown.CommFraction())
	}
	fmt.Printf("  (a 16-wafer cluster holds a mesh no single wafer can; iteration time grows\n")
	fmt.Printf("   only with the blocking edge-I/O and combine terms — overlap, as in\n")
	fmt.Printf("   Jacquelin et al.'s multi-device stencil, is the obvious next lever)\n")
}
