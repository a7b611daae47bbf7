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
	"errors"
	"flag"
	"fmt"
	"io"
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

// config is one validated invocation: the flag values plus what
// parseFlags derived from them.
type config struct {
	kernel         string
	nx, ny, nz     int
	iters          int
	tol            float64
	problem        string
	shift, lambda  float64
	steps, block   int
	boundaryName   string
	boundary       stencil.Boundary
	host           bool
	wafers, engine string
	workers        int
	ckptPath       string
	ckptEvery      int
	resumePath     string

	// opts is the solve's validated core.Options, checkpoint writer
	// attached; a -resume blob is read when the solve starts.
	opts core.Options
	// written counts the checkpoints the solve wrote.
	written *int
}

// flagSet declares wsesim's flags over c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("wsesim", flag.ContinueOnError)
	fs.StringVar(&c.kernel, "kernel", "bicgstab", "workload: bicgstab|seismic25|heat|heat2d")
	fs.IntVar(&c.nx, "nx", 8, "mesh width (fabric width; heat2d: mesh points)")
	fs.IntVar(&c.ny, "ny", 8, "mesh height (fabric height; heat2d: mesh points)")
	fs.IntVar(&c.nz, "nz", 64, "Z points per tile (even; 3D kernels only)")
	fs.IntVar(&c.iters, "iters", 20, "max BiCGStab iterations (per step for heat kernels)")
	fs.Float64Var(&c.tol, "tol", 1e-3, "relative residual tolerance")
	fs.StringVar(&c.problem, "problem", "momentum", "bicgstab coefficients: poisson|momentum|random")
	fs.Float64Var(&c.shift, "shift", 0.08, "seismic25: implicit shift s = (v·Δt/h)²")
	fs.Float64Var(&c.lambda, "lambda", 0.2, "heat kernels: diffusion number λ = α·Δt/h²")
	fs.IntVar(&c.steps, "steps", 3, "heat kernels: backward-Euler time steps")
	fs.StringVar(&c.boundaryName, "boundary", "dirichlet", "heat: dirichlet|periodic (periodic is host-only)")
	fs.IntVar(&c.block, "block", 2, "heat2d: mesh points per tile edge (even; mesh must tile)")
	fs.BoolVar(&c.host, "host", false, "run the host float64 reference backend instead of the simulated wafer (not bicgstab)")
	fs.StringVar(&c.wafers, "wafers", "",
		"wafer grid WxH: run the multiwafer cluster backend instead of a single wafer (e.g. 2x1; bicgstab only)")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0),
		"simulation worker goroutines (>1 shards each fabric on a persistent pool; results are bit-identical)")
	fs.StringVar(&c.engine, "engine", "",
		"core-stepping engine: seq|sharded|batched|fastforward (empty = automatic; every engine is bit- and cycle-identical — this is a host-throughput knob, single-wafer only)")
	fs.StringVar(&c.ckptPath, "checkpoint", "",
		"write a crash-recovery checkpoint to this file every -checkpoint-every iterations (single-wafer solves)")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 10, "iterations between checkpoints when -checkpoint is set")
	fs.StringVar(&c.resumePath, "resume", "",
		"resume a single-wafer solve from this checkpoint file (same mesh/problem flags as the checkpointed run)")
	return fs
}

// parseFlags parses and validates one command line, so a bad
// invocation fails before anything is built instead of panicking
// somewhere inside the simulator. It does no I/O and prints nothing:
// main reports the error with the usage text (flag.ErrHelp for -h).
func parseFlags(args []string) (config, error) {
	var c config
	fs := flagSet(&c)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.nx <= 0 || c.ny <= 0 {
		return c, fmt.Errorf("mesh dimensions must be positive (got %dx%d)", c.nx, c.ny)
	}
	if c.iters <= 0 {
		return c, fmt.Errorf("-iters must be positive; got %d", c.iters)
	}
	if c.kernel != "bicgstab" && c.wafers != "" {
		return c, fmt.Errorf("-wafers runs only the bicgstab kernel; got -kernel %s", c.kernel)
	}
	if c.kernel == "bicgstab" && c.host {
		return c, errors.New("-host applies to the stencil-compiled kernels; bicgstab always simulates")
	}
	if c.engine != "" {
		if c.wafers != "" || c.host {
			return c, errors.New("-engine selects the single-wafer core-stepping engine; it does not apply to -wafers or -host runs")
		}
		// An explicit engine and the sharded worker pool are mutually
		// exclusive; when -workers was left at its default, defer to the
		// engine rather than rejecting the combination.
		workersSet := false
		fs.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
		if !workersSet {
			c.workers = 1
		}
	}

	heat := c.kernel == "heat" || c.kernel == "heat2d"
	switch c.kernel {
	case "bicgstab":
		if err := core.CheckProblemName(c.problem); err != nil {
			return c, fmt.Errorf("-problem: %v", err)
		}
	case "seismic25":
		if c.shift <= 0 {
			return c, fmt.Errorf("-shift must be positive; got %g", c.shift)
		}
	case "heat":
		var err error
		if c.boundary, err = stencil.ParseBoundary(c.boundaryName); err != nil {
			return c, fmt.Errorf("-boundary: %v", err)
		}
		if c.boundary == stencil.Periodic && !c.host {
			return c, errors.New("-boundary periodic runs on the host only (the wafer lowering is Dirichlet); add -host")
		}
	case "heat2d":
		if !c.host {
			if c.block <= 0 || c.block%2 != 0 {
				return c, fmt.Errorf("-block must be even and positive; got %d", c.block)
			}
			if c.nx%c.block != 0 || c.ny%c.block != 0 {
				return c, fmt.Errorf("mesh %d×%d does not tile into %d×%d blocks", c.nx, c.ny, c.block, c.block)
			}
		}
	default:
		return c, fmt.Errorf("unknown -kernel %q (want bicgstab, seismic25, heat or heat2d)", c.kernel)
	}
	if c.kernel != "heat2d" {
		if c.nz <= 0 {
			return c, fmt.Errorf("-nz must be positive; got %d", c.nz)
		}
		if c.nz%2 != 0 {
			return c, fmt.Errorf("-nz must be even (fp16 words stream in pairs); got %d", c.nz)
		}
	}
	if heat {
		if c.ckptPath != "" || c.resumePath != "" {
			return c, errors.New("heat stepping re-solves per step and does not checkpoint")
		}
		if c.lambda <= 0 {
			return c, fmt.Errorf("-lambda must be positive; got %g", c.lambda)
		}
		if c.steps <= 0 {
			return c, fmt.Errorf("-steps must be positive; got %d", c.steps)
		}
	}

	c.opts = core.Options{Backend: core.Wafer, MaxIter: c.iters, Tol: c.tol,
		Wafer: core.WaferOptions{Workers: c.workers, Engine: c.engine}}
	switch {
	case c.host:
		c.opts.Backend = core.Local
		c.opts.Wafer = core.WaferOptions{}
	case c.wafers != "":
		grid, err := multiwafer.ParseTopology(c.wafers)
		if err != nil {
			return c, fmt.Errorf("bad -wafers: %v", err)
		}
		c.opts.Backend = core.MultiWafer
		c.opts.Wafer = core.WaferOptions{}
		c.opts.MultiWafer = core.MultiWaferOptions{Grid: grid, Workers: c.workers}
	}
	c.written = attachCheckpoint(&c.opts, c.ckptPath, c.ckptEvery)
	// One validator for every entry point: the daemon and all the CLIs
	// route bad combinations (e.g. -checkpoint with -wafers) through
	// core.Options.Validate instead of ad-hoc flag checks.
	if err := c.opts.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fs := flagSet(new(config))
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stdout)
			fs.Usage()
			return
		}
		fmt.Fprintf(os.Stderr, "wsesim: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	if c.resumePath != "" {
		blob, err := os.ReadFile(c.resumePath)
		if err != nil {
			log.Fatal(err)
		}
		c.opts.Wafer.Resume = blob
		fmt.Printf("resuming from %s (%d bytes)\n", c.resumePath, len(blob))
	}
	switch c.kernel {
	case "bicgstab":
		runBiCGStab(c)
	case "seismic25":
		runSeismic(c)
	case "heat":
		runHeat3D(c)
	case "heat2d":
		runHeat2D(c)
	}
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

func runSeismic(c config) {
	m := stencil.Mesh{NX: c.nx, NY: c.ny, NZ: c.nz}
	op := stencil.Seismic25(m, c.shift)
	xe := make([]float64, m.N())
	rng := rand.New(rand.NewSource(7))
	for i := range xe {
		xe[i] = rng.Float64()
	}
	p, _ := core.NewStarProblem(op, xe)
	res, err := core.SolveStar(p, c.opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %v on %d×%d fabric (25-point seismic stencil, s=%g, %s backend)\n",
		m, c.nx, c.ny, c.shift, res.Telemetry.Backend)
	reportSolve(res)
	maxErr := 0.0
	for i := range xe {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xe[i]))
	}
	fmt.Printf("max |x − x_exact|: %.3e\n", maxErr)
	fmt.Printf("model SpMV apply: %d cycles (exact halo-relay replay)\n",
		perfmodel.StencilApply3D{W: c.nx, H: c.ny, Z: c.nz, Widths: op.W}.Cycles())
}

func runHeat3D(c config) {
	m := stencil.Mesh{NX: c.nx, NY: c.ny, NZ: c.nz}
	u0 := randomField(m.N())
	out, err := core.RunHeat3D(nil, m, c.lambda, c.boundary, u0, c.steps, c.opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %v on %d×%d fabric (3D heat, λ=%g, %s, %s backend)\n",
		m, c.nx, c.ny, c.lambda, c.boundary, out[0].Solve.Telemetry.Backend)
	reportSteps(out, sumSq(u0))
	if !c.host {
		fmt.Printf("model SpMV apply: %d cycles (exact halo-relay replay)\n",
			perfmodel.StencilApply3D{W: c.nx, H: c.ny, Z: c.nz, Widths: [3]int{1, 1, 1}}.Cycles())
	}
}

func runHeat2D(c config) {
	nx, ny, block := c.nx, c.ny, c.block
	m := stencil.Mesh2D{NX: nx, NY: ny}
	u0 := randomField(m.N())
	out, err := core.RunHeat2D(nil, m, c.lambda, u0, c.steps, block, c.opts)
	if err != nil {
		log.Fatal(err)
	}
	if c.host {
		fmt.Printf("mesh %d×%d (2D heat, λ=%g, local backend)\n", nx, ny, c.lambda)
	} else {
		fmt.Printf("mesh %d×%d on %d×%d fabric, %d×%d blocks (2D heat, λ=%g)\n",
			nx, ny, nx/block, ny/block, block, block, c.lambda)
	}
	reportSteps(out, sumSq(u0))
	if !c.host {
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

// attachCheckpoint wires the -checkpoint flags into a solve's wafer
// options (write-then-rename, so a crash mid-write leaves the previous
// checkpoint intact) and returns the count of checkpoints written,
// which the solve advances.
func attachCheckpoint(opts *core.Options, ckptPath string, ckptEvery int) *int {
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
	return written
}

// bicgstabProblem is the system the bicgstab kernel solves — the one a
// daemon job with the same problem name and mesh (and no seed) does.
func bicgstabProblem(c config) (core.Problem, error) {
	return core.GenerateProblem(c.problem, stencil.Mesh{NX: c.nx, NY: c.ny, NZ: c.nz}, core.DefaultSeed)
}

func runBiCGStab(c config) {
	nx, ny, nz := c.nx, c.ny, c.nz
	m := stencil.Mesh{NX: nx, NY: ny, NZ: nz}
	p, err := bicgstabProblem(c)
	if err != nil {
		log.Fatal(err)
	}
	opts := c.opts
	res, err := core.Solve(p, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *c.written > 0 {
		fmt.Printf("wrote %d checkpoint(s) to %s\n", *c.written, c.ckptPath)
	}

	if opts.Backend == core.MultiWafer {
		grid := opts.MultiWafer.Grid
		fmt.Printf("mesh %v on a %s wafer grid (%d wafers, ~%d×%d fabric each; %s problem)\n",
			m, grid, grid.Wafers(),
			(nx+grid.W-1)/grid.W, (ny+grid.H-1)/grid.H, c.problem)
	} else {
		fmt.Printf("mesh %v on %d×%d fabric (%s problem)\n", m, nx, ny, c.problem)
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
