// Command wsesim runs the wafer-scale stencil workloads on the
// cycle-level simulator and reports convergence plus the per-iteration
// cycle breakdown, extrapolated to wall-clock time at the CS-1 clock.
//
// -kernel selects the workload:
//
//	bicgstab   (default) the paper's 7-point-stencil BiCGStab solve
//	           (kernels.BiCGStabWSE: Listing 1 SpMV, float32 AllReduce
//	           dots); the only kernel the -wafers cluster backend runs
//	seismic25  BiCGStab on the 25-point width-4 seismic stencil, the
//	           implicit acoustic-wave step, compiled by the stencil
//	           compiler (internal/stencilc) into the multi-round
//	           halo-relay program
//	heat       3D implicit-Euler heat stepping: each step solves the
//	           7-point (I + λ·(−Δ₂)) system; -boundary periodic runs on
//	           the host only (the wafer lowering is Dirichlet)
//	heat2d     2D implicit-Euler heat stepping on the block-halo
//	           mapping: each tile owns a -block×-block mesh block and
//	           the step solves the 5-point star program
//
// Two execution backends for bicgstab:
//
//	default         one wafer whose fabric equals the mesh's X×Y extent
//	-wafers WxH     a cluster of W×H cycle-simulated wafers coupled by
//	                the edge-I/O interconnect model
//	                (internal/multiwafer: halo-resident SpMV, two-level
//	                exactly-rounded dots — residual histories are
//	                bit-identical for every grid, so `-wafers 2x1` and
//	                `-wafers 1x1` print the same convergence)
//
// The other kernels run single-wafer, or on the host float64 solver
// with -host (the reference the wafer programs are pinned against).
//
// Single-wafer simulations take -engine to pick the core-stepping
// engine (seq, sharded, batched, fastforward). Every engine produces
// bit- and cycle-identical results; batched and fastforward are the
// host-throughput modes that make paper-scale fabrics interactive. See
// docs/ARCHITECTURE.md, "Execution engines".
//
// Typical runs:
//
//	wsesim -nx 16 -ny 16 -nz 64 -problem momentum
//	wsesim -nx 64 -ny 64 -nz 64 -wafers 2x1 -iters 5
//	wsesim -kernel seismic25 -nx 4 -ny 4 -nz 8 -shift 0.08
//	wsesim -kernel heat -nx 3 -ny 3 -nz 4 -lambda 0.2 -steps 3
//	wsesim -kernel heat2d -nx 8 -ny 4 -block 2 -steps 3
//
// Single-wafer BiCGStab solves (bicgstab, seismic25) are
// crash-recoverable: -checkpoint FILE writes an encoded machine snapshot
// every -checkpoint-every iterations, and -resume FILE restarts from one
// (run with the same mesh and problem flags); the resumed solve
// reproduces the uninterrupted one bit for bit. See docs/ARCHITECTURE.md,
// "Snapshots & exact reductions".
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/multiwafer"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// clock is the CS-1 fabric clock used to extrapolate wall time.
const clock = 1.1e9

// fatalUsage reports a flag-validation error with the usage text and a
// non-zero exit, so bad invocations fail loudly instead of panicking
// somewhere inside the simulator.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsesim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	kernel := flag.String("kernel", "bicgstab", "workload: bicgstab|seismic25|heat|heat2d")
	nx := flag.Int("nx", 8, "mesh width (fabric width; heat2d: mesh points)")
	ny := flag.Int("ny", 8, "mesh height (fabric height; heat2d: mesh points)")
	nz := flag.Int("nz", 64, "Z points per tile (even; 3D kernels only)")
	iters := flag.Int("iters", 20, "max BiCGStab iterations (per step for heat kernels)")
	tol := flag.Float64("tol", 1e-3, "relative residual tolerance")
	problem := flag.String("problem", "momentum", "bicgstab coefficients: poisson|momentum|random")
	shift := flag.Float64("shift", 0.08, "seismic25: implicit shift s = (v·Δt/h)²")
	lambda := flag.Float64("lambda", 0.2, "heat kernels: diffusion number λ = α·Δt/h²")
	steps := flag.Int("steps", 3, "heat kernels: backward-Euler time steps")
	boundary := flag.String("boundary", "dirichlet", "heat: dirichlet|periodic (periodic is host-only)")
	block := flag.Int("block", 2, "heat2d: mesh points per tile edge (even; mesh must tile)")
	host := flag.Bool("host", false, "run the host float64 reference backend instead of the simulated wafer (not bicgstab)")
	wafers := flag.String("wafers", "",
		"wafer grid WxH: run the multiwafer cluster backend instead of a single wafer (e.g. 2x1; bicgstab only)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"simulation worker goroutines (>1 shards each fabric on a persistent pool; results are bit-identical)")
	engine := flag.String("engine", "",
		"core-stepping engine: seq|sharded|batched|fastforward (empty = automatic; every engine is bit- and cycle-identical — this is a host-throughput knob, single-wafer only)")
	ckptPath := flag.String("checkpoint", "",
		"write a crash-recovery checkpoint to this file every -checkpoint-every iterations (single-wafer solves)")
	ckptEvery := flag.Int("checkpoint-every", 10, "iterations between checkpoints when -checkpoint is set")
	resumePath := flag.String("resume", "",
		"resume a single-wafer solve from this checkpoint file (same mesh/problem flags as the checkpointed run)")
	flag.Parse()

	if *nx <= 0 || *ny <= 0 {
		fatalUsage("mesh dimensions must be positive (got %dx%d)", *nx, *ny)
	}
	if *iters <= 0 {
		fatalUsage("-iters must be positive; got %d", *iters)
	}
	if *kernel != "bicgstab" && *wafers != "" {
		fatalUsage("-wafers runs only the bicgstab kernel; got -kernel %s", *kernel)
	}
	if *kernel == "bicgstab" && *host {
		fatalUsage("-host applies to the stencil-compiled kernels; bicgstab always simulates")
	}
	if *engine != "" {
		if *wafers != "" || *host {
			fatalUsage("-engine selects the single-wafer core-stepping engine; it does not apply to -wafers or -host runs")
		}
		// An explicit engine and the sharded worker pool are mutually
		// exclusive; when -workers was left at its default, defer to the
		// engine rather than rejecting the combination.
		workersSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				workersSet = true
			}
		})
		if !workersSet {
			*workers = 1
		}
	}

	switch *kernel {
	case "bicgstab":
		runBiCGStab(*nx, *ny, *nz, *iters, *tol, *problem, *wafers, *workers, *engine, *ckptPath, *ckptEvery, *resumePath)
	case "seismic25":
		runSeismic(*nx, *ny, *nz, *iters, *tol, *shift, *host, *workers, *engine, *ckptPath, *ckptEvery, *resumePath)
	case "heat":
		if *ckptPath != "" || *resumePath != "" {
			fatalUsage("heat stepping re-solves per step and does not checkpoint")
		}
		runHeat3D(*nx, *ny, *nz, *iters, *tol, *lambda, *steps, *boundary, *host, *workers, *engine)
	case "heat2d":
		if *ckptPath != "" || *resumePath != "" {
			fatalUsage("heat stepping re-solves per step and does not checkpoint")
		}
		runHeat2D(*nx, *ny, *iters, *tol, *lambda, *steps, *block, *host, *workers, *engine)
	default:
		fatalUsage("unknown -kernel %q (want bicgstab, seismic25, heat or heat2d)", *kernel)
	}
}

// check3D validates the shared 3D mesh flags.
func check3D(nz int) {
	if nz <= 0 {
		fatalUsage("-nz must be positive; got %d", nz)
	}
	if nz%2 != 0 {
		fatalUsage("-nz must be even (fp16 words stream in pairs); got %d", nz)
	}
}

// starOptions assembles core.Options for a stencil-compiled solve.
func starOptions(iters int, tol float64, host bool, workers int, engine string) core.Options {
	o := core.Options{Backend: core.Wafer, MaxIter: iters, Tol: tol,
		Wafer: core.WaferOptions{Workers: workers, Engine: engine}}
	if host {
		o.Backend = core.Local
		o.Wafer = core.WaferOptions{}
	}
	return o
}

// reportSolve prints the shared outcome lines of a star solve.
func reportSolve(res core.Result) {
	fmt.Printf("iterations: %d  converged: %v  true residual: %.3e\n",
		res.Iterations, res.Converged, res.TrueResidual)
	if res.Telemetry.Simulated {
		pc := res.Telemetry.PerIteration
		fmt.Printf("cycles/iteration: %d  (spmv %d, dot %d, allreduce %d, axpy %d)\n",
			pc.Total(), pc.SpMV, pc.Dot, pc.AllReduce, pc.Axpy)
		fmt.Printf("at %.1f GHz: %.2f µs/iteration\n", clock/1e9, float64(pc.Total())/clock*1e6)
	}
}

func runSeismic(nx, ny, nz, iters int, tol, shift float64, host bool, workers int, engine, ckptPath string, ckptEvery int, resumePath string) {
	check3D(nz)
	if shift <= 0 {
		fatalUsage("-shift must be positive; got %g", shift)
	}
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	op := stencil.Seismic25(m, shift)
	xe := make([]float64, m.N())
	rng := rand.New(rand.NewSource(7))
	for i := range xe {
		xe[i] = rng.Float64()
	}
	p, _ := core.NewStarProblem(op, xe)
	opts := starOptions(iters, tol, host, workers, engine)
	attachCheckpoint(&opts, ckptPath, ckptEvery, resumePath)
	res, err := core.SolveStar(p, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %v on %d×%d fabric (25-point seismic stencil, s=%g, %s backend)\n",
		m, nx, ny, shift, res.Telemetry.Backend)
	reportSolve(res)
	maxErr := 0.0
	for i := range xe {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xe[i]))
	}
	fmt.Printf("max |x − x_exact|: %.3e\n", maxErr)
	fmt.Printf("model SpMV apply: %d cycles (exact halo-relay replay)\n",
		perfmodel.StencilApply3D{W: nx, H: ny, Z: nz, Widths: op.W}.Cycles())
}

func runHeat3D(nx, ny, nz, iters int, tol, lambda float64, steps int, boundary string, host bool, workers int, engine string) {
	check3D(nz)
	var bnd stencil.Boundary
	switch boundary {
	case "dirichlet":
		bnd = stencil.Dirichlet
	case "periodic":
		bnd = stencil.Periodic
	default:
		fatalUsage("unknown -boundary %q (want dirichlet or periodic)", boundary)
	}
	if lambda <= 0 {
		fatalUsage("-lambda must be positive; got %g", lambda)
	}
	if steps <= 0 {
		fatalUsage("-steps must be positive; got %d", steps)
	}
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	u0 := randomField(m.N())
	opts := starOptions(iters, tol, host, workers, engine)
	out, err := core.RunHeat3D(nil, m, lambda, bnd, u0, steps, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %v on %d×%d fabric (3D heat, λ=%g, %s, %s backend)\n",
		m, nx, ny, lambda, boundary, out[0].Solve.Telemetry.Backend)
	reportSteps(out, sumSq(u0))
	if !host {
		fmt.Printf("model SpMV apply: %d cycles (exact halo-relay replay)\n",
			perfmodel.StencilApply3D{W: nx, H: ny, Z: nz, Widths: [3]int{1, 1, 1}}.Cycles())
	}
}

func runHeat2D(nx, ny, iters int, tol, lambda float64, steps, block int, host bool, workers int, engine string) {
	if lambda <= 0 {
		fatalUsage("-lambda must be positive; got %g", lambda)
	}
	if steps <= 0 {
		fatalUsage("-steps must be positive; got %d", steps)
	}
	if !host {
		if block <= 0 || block%2 != 0 {
			fatalUsage("-block must be even and positive; got %d", block)
		}
		if nx%block != 0 || ny%block != 0 {
			fatalUsage("mesh %d×%d does not tile into %d×%d blocks", nx, ny, block, block)
		}
	}
	m := stencil.Mesh2D{NX: nx, NY: ny}
	u0 := randomField(m.N())
	opts := starOptions(iters, tol, host, workers, engine)
	out, err := core.RunHeat2D(nil, m, lambda, u0, steps, block, opts)
	if err != nil {
		log.Fatal(err)
	}
	if host {
		fmt.Printf("mesh %d×%d (2D heat, λ=%g, local backend)\n", nx, ny, lambda)
	} else {
		fmt.Printf("mesh %d×%d on %d×%d fabric, %d×%d blocks (2D heat, λ=%g)\n",
			nx, ny, nx/block, ny/block, block, block, lambda)
	}
	reportSteps(out, sumSq(u0))
	if !host {
		fmt.Printf("model SpMV apply: %d cycles (exact block-halo replay)\n",
			perfmodel.StencilApply2D{W: nx / block, H: ny / block, B: block, Points: 5}.Cycles())
	}
}

// reportSteps prints the per-step energy decay of a heat run.
func reportSteps(out []core.HeatStep, e0 float64) {
	prev := e0
	for i, s := range out {
		fmt.Printf("step %2d: iterations %3d  energy %.6e  (×%.4f)\n",
			i+1, s.Solve.Iterations, s.Energy, s.Energy/prev)
		prev = s.Energy
	}
	last := out[len(out)-1].Solve
	if last.Telemetry.Simulated {
		pc := last.Telemetry.PerIteration
		fmt.Printf("cycles/iteration (last step): %d  (spmv %d, dot %d, allreduce %d, axpy %d)\n",
			pc.Total(), pc.SpMV, pc.Dot, pc.AllReduce, pc.Axpy)
	}
}

func randomField(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.Float64()
	}
	return u
}

func sumSq(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}

// attachCheckpoint wires the -checkpoint/-resume flags into a solve's
// wafer options (write-then-rename, so a crash mid-write leaves the
// previous checkpoint intact) and returns the count of checkpoints
// written, which the solve advances.
func attachCheckpoint(opts *core.Options, ckptPath string, ckptEvery int, resumePath string) *int {
	written := new(int)
	if ckptPath != "" {
		opts.Wafer.CheckpointEvery = ckptEvery
		opts.Wafer.Checkpoint = func(blob []byte) error {
			tmp := ckptPath + ".tmp"
			if err := os.WriteFile(tmp, blob, 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, ckptPath); err != nil {
				return err
			}
			*written++
			return nil
		}
	}
	if resumePath != "" {
		blob, err := os.ReadFile(resumePath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Wafer.Resume = blob
		fmt.Printf("resuming from %s (%d bytes)\n", resumePath, len(blob))
	}
	return written
}

func runBiCGStab(nx, ny, nz, iters int, tol float64, problem, wafersFlag string, workers int, engine, ckptPath string, ckptEvery int, resumePath string) {
	check3D(nz)
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	var op *stencil.Op7
	switch problem {
	case "poisson":
		op = stencil.Poisson(m, 1)
	case "random":
		op = stencil.RandomDiagDominant(m, 1.5, rand.New(rand.NewSource(1)))
	case "momentum":
		op = stencil.MomentumLike(m, 0.02, [3]float64{1, 0.2, -0.1}, 0.1, 1, 0.1)
	default:
		fatalUsage("unknown -problem %q (want poisson, momentum or random)", problem)
	}
	xe := make([]float64, m.N())
	rng := rand.New(rand.NewSource(7))
	for i := range xe {
		xe[i] = rng.Float64()
	}
	p, _ := core.NewProblem(op, xe)

	opts := core.Options{Backend: core.Wafer, MaxIter: iters, Tol: tol,
		Wafer: core.WaferOptions{Workers: workers, Engine: engine}}
	if wafersFlag != "" {
		grid, err := multiwafer.ParseTopology(wafersFlag)
		if err != nil {
			fatalUsage("bad -wafers: %v", err)
		}
		opts.Backend = core.MultiWafer
		opts.Wafer = core.WaferOptions{}
		opts.MultiWafer = core.MultiWaferOptions{Grid: grid, Workers: workers}
	}
	written := attachCheckpoint(&opts, ckptPath, ckptEvery, resumePath)
	// One validator for every entry point: the daemon and all the CLIs
	// route bad combinations (e.g. -checkpoint with -wafers) through
	// core.Options.Validate instead of ad-hoc flag checks.
	if err := opts.Validate(); err != nil {
		fatalUsage("%v", err)
	}
	res, err := core.Solve(p, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *written > 0 {
		fmt.Printf("wrote %d checkpoint(s) to %s\n", *written, ckptPath)
	}

	if opts.Backend == core.MultiWafer {
		grid := opts.MultiWafer.Grid
		fmt.Printf("mesh %v on a %s wafer grid (%d wafers, ~%d×%d fabric each; %s problem)\n",
			m, grid, grid.Wafers(),
			(nx+grid.W-1)/grid.W, (ny+grid.H-1)/grid.H, problem)
	} else {
		fmt.Printf("mesh %v on %d×%d fabric (%s problem)\n", m, nx, ny, problem)
	}
	fmt.Printf("iterations: %d  converged: %v  true residual: %.3e\n",
		res.Iterations, res.Converged, res.TrueResidual)
	if opts.Backend == core.MultiWafer {
		pc := res.Telemetry.PerIteration
		fmt.Printf("cycles/iteration: %d  (spmv %d, edge-I/O %d, dot %d, allreduce %d, combine %d, axpy %d)\n",
			pc.Total(), pc.SpMV, pc.EdgeIO, pc.Dot, pc.AllReduce, pc.Combine, pc.Axpy)
		fmt.Printf("at %.1f GHz: %.2f µs/iteration (%.0f%% inter-wafer + reduction)\n",
			clock/1e9, float64(pc.Total())/clock*1e6,
			100*float64(pc.Communication())/float64(pc.Total()))
		model := perfmodel.SimModel().MultiWaferIterationCycles(
			m.NX, m.NY, m.NZ, opts.MultiWafer.Grid.W, opts.MultiWafer.Grid.H, clock, perfmodel.DefaultEdgeIO())
		fmt.Printf("model prediction: %.0f cycles/iteration\n", model.Total())
		return
	}
	pc := res.Telemetry.PerIteration
	fmt.Printf("cycles/iteration: %d  (spmv %d, dot %d, allreduce %d, axpy %d)\n",
		pc.Total(), pc.SpMV, pc.Dot, pc.AllReduce, pc.Axpy)
	fmt.Printf("at %.1f GHz: %.2f µs/iteration\n", clock/1e9, float64(pc.Total())/clock*1e6)

	model := perfmodel.SimModel()
	w := perfmodel.WSE{W: nx, H: ny, ClockHz: clock, SIMD: 4}
	fmt.Printf("model prediction: %.0f cycles/iteration\n", model.IterationCycles(w, nz).Total())
}
