package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/multiwafer"
	"repro/internal/perfmodel"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// Experiment runners: one per table/figure (see DESIGN.md §4). Each
// returns a printable report; cmd/repro and the root benches call these.

// Table1Report regenerates Table I by instrumenting one BiCGStab
// iteration in the mixed and single-precision contexts.
func Table1Report() string {
	m := stencil.Mesh{NX: 6, NY: 6, NZ: 8}
	op := stencil.RandomDiagDominant(m, 1.5, rand.New(rand.NewSource(1)))
	n := int64(m.N())

	row := func(ctx solver.Context) [solver.KindAxpy + 1]solver.OpCounts {
		runN := func(iters int) solver.Counters {
			norm, diag := op.Normalize()
			xe := make([]float64, m.N())
			for i := range xe {
				xe[i] = float64(i%5) - 2
			}
			b64 := make([]float64, m.N())
			op.Apply(b64, xe)
			sb := stencil.ScaleRHS(b64, diag)
			ctx.Counters().Reset()
			if _, _, err := (solver.Host{Context: ctx}).Solve(norm, sb, make([]float64, m.N()), solver.Options{MaxIter: iters}); err != nil {
				panic(err)
			}
			return *ctx.Counters()
		}
		c1, c3 := runN(1), runN(3)
		var out [solver.KindAxpy + 1]solver.OpCounts
		for k := solver.KindMatvec; k <= solver.KindAxpy; k++ {
			out[k] = solver.OpCounts{
				HPAdd: (c3.ByKind[k].HPAdd - c1.ByKind[k].HPAdd) / 2 / n,
				HPMul: (c3.ByKind[k].HPMul - c1.ByKind[k].HPMul) / 2 / n,
				SPAdd: (c3.ByKind[k].SPAdd - c1.ByKind[k].SPAdd) / 2 / n,
				SPMul: (c3.ByKind[k].SPMul - c1.ByKind[k].SPMul) / 2 / n,
			}
		}
		return out
	}

	sp := row(solver.NewF32())
	mx := row(solver.NewMixed())
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — operations per meshpoint per iteration (measured)\n")
	fmt.Fprintf(&b, "%-12s %6s %6s | %6s %6s %6s\n", "Operation", "SP +", "SP ×", "HP +", "HP ×", "SP +")
	names := map[solver.Kind]string{solver.KindMatvec: "Matvec (x2)", solver.KindDot: "Dot (x4)", solver.KindAxpy: "AXPY (x6)"}
	var totSP, totMX solver.OpCounts
	for k := solver.KindMatvec; k <= solver.KindAxpy; k++ {
		fmt.Fprintf(&b, "%-12s %6d %6d | %6d %6d %6d\n", names[k],
			sp[k].SPAdd, sp[k].SPMul, mx[k].HPAdd, mx[k].HPMul, mx[k].SPAdd)
		totSP.Add(sp[k])
		totMX.Add(mx[k])
	}
	fmt.Fprintf(&b, "%-12s %6d %6d | %6d %6d %6d\n", "Total",
		totSP.SPAdd, totSP.SPMul, totMX.HPAdd, totMX.HPMul, totMX.SPAdd)
	fmt.Fprintf(&b, "paper:       22     22 |     18     22      4   (44 ops total: %d measured)\n",
		totMX.Total())
	return b.String()
}

// HeadlineReport reproduces §V: iteration time and PFLOPS at
// 600×595×1536, from both the simulator-extrapolated and
// paper-calibrated models, plus a live cycle-simulated solve at reduced
// scale for validation.
func HeadlineReport() string {
	var b strings.Builder
	simUs, simPF, simFrac := perfmodel.HeadlinePrediction(perfmodel.SimModel())
	papUs, papPF, papFrac := perfmodel.HeadlinePrediction(perfmodel.PaperModel())
	fmt.Fprintf(&b, "§V headline — BiCGStab on 600×595×1536, 602×595 fabric\n")
	fmt.Fprintf(&b, "  paper measured:        28.10 µs/iter   0.860 PFLOPS  (~1/3 peak)\n")
	fmt.Fprintf(&b, "  simulator model (η=1): %5.2f µs/iter   %.3f PFLOPS  (%.0f%% peak)\n", simUs, simPF, simFrac*100)
	fmt.Fprintf(&b, "  calibrated (η=%.3f):  %5.2f µs/iter   %.3f PFLOPS  (%.0f%% peak)\n",
		perfmodel.PaperEta, papUs, papPF, papFrac*100)

	// Live validation at small scale.
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 64}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	p, _ := NewProblem(op, ramp(m.N()))
	res, err := Solve(p, Options{Backend: Wafer, MaxIter: 3})
	if err != nil {
		fmt.Fprintf(&b, "  (cycle-sim validation failed: %v)\n", err)
		return b.String()
	}
	pc := res.Telemetry.PerIteration
	pred := perfmodel.SimModel().IterationCycles(perfmodel.WSE{W: 8, H: 8, ClockHz: 1.1e9, SIMD: 4}, 64)
	fmt.Fprintf(&b, "  cycle-sim check (8×8×64): %d cycles/iter vs model %.0f (spmv %d, dot %d, allreduce %d, axpy %d)\n",
		pc.Total(), pred.Total(), pc.SpMV, pc.Dot, pc.AllReduce, pc.Axpy)
	return b.String()
}

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + 0.5*float64(i%7)/7
	}
	return out
}

// PaperAllReduceResult is one engine's cycle-simulated run of the
// Figure 6 AllReduce on the full 602×595 paper fabric.
type PaperAllReduceResult struct {
	W, H        int
	Engine      string  // fabric stepping engine name
	Cycles      int64   // simulated latency, start to last delivery
	Sum         float32 // broadcast sum (bit-exact comparable)
	Fingerprint uint64  // fabric architectural-state fingerprint at end
	Diameter    int
}

// Microseconds converts the simulated latency to wall-clock at the
// paper's 1.1 GHz clock.
func (r PaperAllReduceResult) Microseconds() float64 {
	return float64(r.Cycles) / 1.1e9 * 1e6
}

// PaperAllReduce cycle-simulates the wafer-wide AllReduce on the full
// 602×595 fabric of the paper — not a perfmodel extrapolation. The
// event-driven core/actor scheduling (idle tiles are free) is what
// makes this affordable: during the long serialization phases almost
// all of the ~358k tiles are parked. workers selects the fabric
// engine; results are bit-identical across engines (the paper-scale
// equivalence test compares Sum, Cycles and Fingerprint).
func PaperAllReduce(workers int) (PaperAllReduceResult, error) {
	const w, h = 602, 595
	cfg := wse.CS1(w, h)
	cfg.Workers = workers
	mach := wse.New(cfg)
	defer mach.Close()
	ar, err := kernels.NewAllReduce(mach, 0)
	if err != nil {
		return PaperAllReduceResult{}, err
	}
	vals := make([]float32, w*h)
	for i := range vals {
		vals[i] = float32(i%17) * 0.25
	}
	res, err := ar.Run(vals, 1<<22)
	if err != nil {
		return PaperAllReduceResult{}, err
	}
	return PaperAllReduceResult{
		W: w, H: h,
		Engine:      mach.Fab.StepperName(),
		Cycles:      res.Cycles,
		Sum:         res.Sum,
		Fingerprint: mach.Fab.Fingerprint(),
		Diameter:    w + h - 2,
	}, nil
}

// PaperAllReduceReport runs PaperAllReduce and formats the §IV-3
// headline comparison: simulated latency vs the paper's < 1.5 µs claim
// and the ~diameter+10% shape.
func PaperAllReduceReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AllReduce at paper scale — cycle-simulated 602×595 wafer\n")
	r, err := PaperAllReduce(1)
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&b, "  %d×%d: %d cycles = %.2f µs (paper: < 1.5 µs)\n",
		r.W, r.H, r.Cycles, r.Microseconds())
	fmt.Fprintf(&b, "  diameter %d, ratio %.3f (paper: ~1.1; odd-height wafer serializes its single center row)\n",
		r.Diameter, float64(r.Cycles)/float64(r.Diameter))
	fmt.Fprintf(&b, "  parity-aware model: %.0f cycles (calibrated to this measurement)\n",
		perfmodel.CS1().AllReduceCycles())
	return b.String()
}

// AllReduceReport reproduces the §IV-3 latency claims.
func AllReduceReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AllReduce (Figure 6): cycle-simulated latency vs diameter\n")
	for _, dims := range [][2]int{{8, 8}, {16, 16}, {32, 32}, {64, 48}} {
		mach := wse.New(wse.CS1(dims[0], dims[1]))
		ar, err := kernels.NewAllReduce(mach, 0)
		if err != nil {
			mach.Close()
			return err.Error()
		}
		vals := make([]float32, dims[0]*dims[1])
		for i := range vals {
			vals[i] = float32(i % 3)
		}
		res, err := ar.Run(vals, 1<<20)
		mach.Close()
		if err != nil {
			return err.Error()
		}
		diam := dims[0] + dims[1] - 2
		fmt.Fprintf(&b, "  %3d×%-3d: %4d cycles (diameter %4d, ratio %.3f)\n",
			dims[0], dims[1], res.Cycles, diam, float64(res.Cycles)/float64(diam))
	}
	w := perfmodel.CS1()
	fmt.Fprintf(&b, "  modelled 602×595: %.0f cycles = %.2f µs (paper: < 1.5 µs; ~1.25× diameter — odd height serializes the single center row)\n",
		w.AllReduceCycles(), w.AllReduceSeconds()*1e6)
	return b.String()
}

// MultiWaferReport exercises the cluster-of-wafers backend: a live
// cycle-simulated strong-scaling sweep of one mesh across wafer grids
// (verifying the bit-identical-histories contract as it goes), then
// the calibrated model's projection to grids of full 602×595 wafers on
// the paper's headline mesh.
func MultiWaferReport() string {
	var b strings.Builder
	m := stencil.Mesh{NX: 16, NY: 16, NZ: 32}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	xe := ramp(m.N())
	p, _ := NewProblem(op, xe)

	fmt.Fprintf(&b, "Multi-wafer cluster backend — %v mesh, cycle-simulated\n", m)
	fmt.Fprintf(&b, "  %-6s %12s %10s %10s %10s %10s\n", "grid", "cyc/iter", "spmv", "allreduce", "edge-I/O", "combine")
	var refHist []float64
	identical := true
	for _, grid := range []multiwafer.Topology{{W: 1, H: 1}, {W: 2, H: 1}, {W: 2, H: 2}} {
		res, err := Solve(p, Options{Backend: MultiWafer, MaxIter: 4,
			MultiWafer: MultiWaferOptions{Grid: grid}})
		if err != nil {
			return err.Error()
		}
		pi := res.Telemetry.PerIteration
		fmt.Fprintf(&b, "  %-6s %12d %10d %10d %10d %10d\n",
			grid, pi.Total(), pi.SpMV, pi.AllReduce, pi.EdgeIO, pi.Combine)
		if refHist == nil {
			refHist = res.History
		} else {
			for i := range refHist {
				if res.History[i] != refHist[i] {
					identical = false
				}
			}
		}
	}
	fmt.Fprintf(&b, "  residual histories bit-identical across grids: %v\n", identical)

	model := perfmodel.PaperModel()
	io := perfmodel.DefaultEdgeIO()
	mesh, _, _ := perfmodel.Headline()
	fmt.Fprintf(&b, "Weak-scaling projection — %d×%d per-wafer extent, Z=%d, grids of\n", mesh.X, mesh.Y, mesh.Z)
	fmt.Fprintf(&b, "602×595-class wafers (η=%.3f): bigger meshes, near-constant iteration time\n", perfmodel.PaperEta)
	fmt.Fprintf(&b, "  %-6s %8s %14s %12s %12s %7s\n", "grid", "wafers", "mesh", "µs/iter", "throughput×", "comm%")
	for _, pt := range model.MultiWaferWeakScaling(mesh.X, mesh.Y, mesh.Z,
		[][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}}, 1.1e9, io) {
		fmt.Fprintf(&b, "  %dx%-4d %8d %7dx%-6d %12.2f %12.2f %6.0f%%\n",
			pt.GridW, pt.GridH, pt.Wafers, pt.GridW*mesh.X, pt.GridH*mesh.Y,
			pt.IterMicros, pt.Speedup, 100*pt.Breakdown.CommFraction())
	}
	fmt.Fprintf(&b, "  (the 3D mapping is X×Y-parallel, so scaling out buys capacity, not\n")
	fmt.Fprintf(&b, "   iteration speed: a 16-wafer cluster solves a 16× mesh for the cost of the\n")
	fmt.Fprintf(&b, "   edge-I/O halos and the exact two-level combine; examples/multiwafer also\n")
	fmt.Fprintf(&b, "   prints the strong-scaling sweep that quantifies those overheads)\n")
	return b.String()
}

// ScalingReport reproduces Figures 7 (370³) and 8 (600³).
func ScalingReport() string {
	var b strings.Builder
	cfg := cluster.Joule()
	for _, tc := range []struct {
		name string
		m    stencil.Mesh
	}{{"Figure 7 — 370³ mesh", cluster.Fig7Mesh}, {"Figure 8 — 600³ mesh", cluster.Fig8Mesh}} {
		fmt.Fprintf(&b, "%s (Joule model, ms/iteration)\n", tc.name)
		for _, p := range cluster.StrongScaling(cfg, tc.m, cluster.PublishedCores) {
			fmt.Fprintf(&b, "  %6d cores: %8.2f ms  (mem %.2f, halo %.2f, coll %.2f)\n",
				p.Cores, p.Seconds*1e3, p.Breakdown.Mem*1e3, p.Breakdown.Halo*1e3, p.Breakdown.Coll*1e3)
		}
	}
	t16k := cfg.IterationTime(cluster.Fig8Mesh, 16384).Total()
	fmt.Fprintf(&b, "CS-1 vs 16,384-core Joule on 600³-class problem: %.0f× (paper: ~214×)\n", t16k/28.1e-6)
	return b.String()
}

// Fig9Series is one precision's residual history.
type Fig9Series struct {
	Name    string
	History []float64
}

// Fig9Experiment runs the mixed- vs single-precision study on a
// momentum-like system. meshScale 1 is the paper's 100×400×100; smaller
// scales keep tests fast with the same behaviour.
func Fig9Experiment(nx, ny, nz, iters int) []Fig9Series {
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1.0, 0.05)
	rng := rand.New(rand.NewSource(3))
	xe := make([]float64, m.N())
	for i := range xe {
		xe[i] = rng.Float64()
	}
	norm, diag := op.Normalize()
	b64 := make([]float64, m.N())
	op.Apply(b64, xe)
	sb := stencil.ScaleRHS(b64, diag)
	bn := stencil.Norm2(sb)

	run := func(ctx solver.Context, name string) Fig9Series {
		_, st, err := solver.Host{Context: ctx}.Solve(norm, sb, make([]float64, m.N()), solver.Options{
			MaxIter: iters, Tol: 0,
			TrueResidual: func(v solver.Vector) float64 {
				return norm.ResidualNorm(v.Float64(), sb) / bn
			},
		})
		if err != nil {
			panic(err)
		}
		return Fig9Series{Name: name, History: st.TrueHistory}
	}
	return []Fig9Series{
		run(solver.NewF32(), "Single precision"),
		run(solver.NewMixed(), "Mixed sp/hp"),
	}
}

// Fig9Report formats the residual study.
func Fig9Report(nx, ny, nz, iters int) string {
	series := Fig9Experiment(nx, ny, nz, iters)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — normwise relative residual, %d×%d×%d momentum system\n", nx, ny, nz)
	fmt.Fprintf(&b, "  %-5s %-18s %-18s\n", "iter", series[0].Name, series[1].Name)
	n := len(series[0].History)
	if len(series[1].History) < n {
		n = len(series[1].History)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  %-5d %-18.3e %-18.3e\n", i+1, series[0].History[i], series[1].History[i])
	}
	fmt.Fprintf(&b, "  paper: mixed tracks fp32, then plateaus near 1e-2..1e-3 (fp16 ε ~1e-3 + roundoff growth)\n")
	return b.String()
}

// Table2Report regenerates Table II and the §VI-A projection.
func Table2Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — cycles per meshpoint for SIMPLE, excluding the solver\n")
	fmt.Fprintf(&b, "  %-16s %-9s %-7s %-5s %-7s %-3s %s\n", "Step", "Merge", "FLOP", "sqrt", "divide", "xT", "Total")
	for _, r := range mfix.TableII() {
		fmt.Fprintf(&b, "  %-16s %3.0f-%-5.0f %2.0f-%-4.0f %2.0f-%-2.0f %2.0f-%-4.0f %2.0f  %3.0f-%.0f\n",
			r.Step, r.Merge.Min, r.Merge.Max, r.FLOP.Min, r.FLOP.Max,
			r.Sqrt.Min, r.Sqrt.Max, r.Div.Min, r.Div.Max, r.Trans.Min, r.Total.Min, r.Total.Max)
	}
	pr := mfix.ProjectCS1(perfmodel.PaperModel(), 600, 600, 600, mfix.PaperSimpleParams())
	fmt.Fprintf(&b, "Projection, 600³ / 15 SIMPLE iterations: %.0f–%.0f timesteps/s (paper: 80–125)\n",
		pr.StepsPerSecond.Min, pr.StepsPerSecond.Max)
	joule := mfix.JouleTimestepSeconds(cluster.Joule(), cluster.Fig8Mesh, 16384, mfix.PaperSimpleParams())
	mid := (pr.StepSeconds.Min + pr.StepSeconds.Max) / 2
	fmt.Fprintf(&b, "vs 16,384-core Joule MFIX step (%.2f s): %.0f× (paper: above 200×)\n", joule, joule/mid)
	return b.String()
}

// SpMV2DReport reproduces the §IV-2 capacity and overhead analysis, with
// the halo-add count of the compiled block-halo program (the stage
// lists its cycle model replays) beside the analytic one.
func SpMV2DReport() string {
	var b strings.Builder
	maxB := perfmodel.MaxBlock2D(48 * 1024)
	fmt.Fprintf(&b, "2D 9-point mapping (§IV-2)\n")
	fmt.Fprintf(&b, "  max block: %d×%d  => geometry %d×%d on a 600-wide fabric (paper: 38×38, 22800²)\n",
		maxB, maxB, maxB*600, maxB*600)
	for _, blk := range []int{4, 8, 16, 38} {
		fmt.Fprintf(&b, "  overhead(b=%2d) = %5.1f%%", blk, 100*perfmodel.Overhead2D(blk))
		if blk == 8 {
			fmt.Fprintf(&b, "   (paper: < 20%% at 8×8)")
		}
		fmt.Fprintln(&b)
	}
	prog := perfmodel.StencilApply2D{W: 4, H: 4, B: 8, Points: 9}
	fmt.Fprintf(&b, "  compiled 32×32 program, 8×8 blocks: %d halo adds (model %d)\n",
		prog.HaloAdds(), 2*3*4*(8+2)+2*4*3*8)
	return b.String()
}

// Fig1Report prints the machine-balance table.
func Fig1Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — machine balance (flops per word)\n")
	fmt.Fprintf(&b, "  %-24s %6s %10s %10s\n", "system", "year", "memory", "network")
	for _, e := range perfmodel.MachineBalance() {
		tag := ""
		if e.WaferScale {
			tag = "  <= wafer scale"
		}
		fmt.Fprintf(&b, "  %-24s %6d %10.2f %10.1f%s\n", e.System, e.Year, e.FlopsPerWordMemory, e.FlopsPerWordNetwork, tag)
	}
	return b.String()
}

// MemoryReport reproduces the §IV memory-capacity accounting (E11).
func MemoryReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory capacity (§IV)\n")
	fmt.Fprintf(&b, "  paper layout, Z=1536: %d bytes of %d (paper: ~31KB of 48KB)\n",
		perfmodel.TileVectorBytes(1536), 48*1024)
	fmt.Fprintf(&b, "  max Z at 10Z words: %d\n", perfmodel.MaxZ(48*1024))
	// Simulator layout (adds SpMV staging and FIFOs).
	m := stencil.Mesh{NX: 1, NY: 1, NZ: 1536}
	norm, _ := stencil.Poisson(m, 1).Normalize()
	mach := wse.New(wse.CS1(1, 1))
	defer mach.Close()
	if _, err := kernels.NewBiCGStabWSE(mach, stencil.NewOp7Half(norm)); err != nil {
		fmt.Fprintf(&b, "  simulator layout: DOES NOT FIT: %v\n", err)
	} else {
		fmt.Fprintf(&b, "  simulator layout, Z=1536: %d bytes (explicit staging buffers)\n",
			mach.Tiles[0].Arena.Used())
	}
	return b.String()
}

// RoutingReport verifies the Figure 5 tessellation property across a
// wafer-sized extent.
func RoutingReport() string {
	bad := 0
	for y := 0; y < 595; y++ {
		for x := 0; x < 602; x++ {
			if !kernels.StencilColorsDistinct(x, y) {
				bad++
			}
		}
	}
	return fmt.Sprintf("Figure 5 — tessellation routing: %d color clashes across 602×595 tiles (5 colors)\n", bad)
}
