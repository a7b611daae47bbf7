// Command cavity runs the MFIX-style SIMPLE solver on the lid-driven
// cavity and prints residual history and the vertical centreline
// u-velocity profile.
//
// The 2D (default) and the 3D cavity both support two pressure-solve
// backends:
//
//	-backend=host   float64 BiCGStab in-process (fast reference)
//	-backend=wse    the pressure-correction BiCGStab cycle-simulated on
//	                a wafer fabric, with measured cycles reported: in 2D
//	                (n/block)² tiles through the §IV-2 block-halo
//	                mapping, in 3D n² tiles through Listing 1 with Z = n
//
// The paper-style headline run is the Table II cavity on a 128×128
// fabric of eight shards:
//
//	cavity -backend=wse -n 256 -block 2 -workers 8 -iters 5
//
// (minutes of host time: every pressure solve steps the full machine
// through the cycles fast-forward cannot jump).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/wse"
)

// config is one validated invocation.
type config struct {
	dim, n  int
	re      float64
	iters   int
	backend string
	block   int
	workers int
}

// flagSet declares cavity's flags over c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("cavity", flag.ContinueOnError)
	fs.IntVar(&c.dim, "dim", 2, "cavity dimensionality: 2 or 3")
	fs.IntVar(&c.n, "n", 16, "cells per side")
	fs.Float64Var(&c.re, "re", 100, "Reynolds number")
	fs.IntVar(&c.iters, "iters", 40, "SIMPLE iterations")
	fs.StringVar(&c.backend, "backend", "host", "pressure-solve backend: host | wse (3D: Listing 1 on an n×n fabric, n even)")
	fs.IntVar(&c.block, "block", 2, "2D wse backend: block edge b; the fabric is (n/b)² tiles")
	fs.IntVar(&c.workers, "workers", 1, "wse backend: fast-forward's shard count (1: one per host core, at most one per 64 tiles)")
	return fs
}

// parseFlags parses and validates one command line, so a bad
// invocation fails before anything is built. It does no I/O and prints
// nothing: main reports the error with the usage text (flag.ErrHelp for
// -h).
func parseFlags(args []string) (config, error) {
	var c config
	fs := flagSet(&c)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.n <= 0 || c.iters <= 0 {
		return c, fmt.Errorf("-n and -iters must be positive (got n=%d, iters=%d)", c.n, c.iters)
	}
	if c.dim != 2 && c.dim != 3 {
		return c, fmt.Errorf("unsupported -dim=%d", c.dim)
	}
	switch {
	case c.backend == "host":
	case c.backend != "wse":
		return c, fmt.Errorf("unknown backend %q", c.backend)
	case c.dim == 3:
		if c.n%2 != 0 {
			return c, fmt.Errorf("the 3D wafer cavity needs an even n: Listing 1 packs two fp16 per word along Z = n (got n=%d)", c.n)
		}
	case c.block <= 0:
		return c, fmt.Errorf("-block must be positive; got %d", c.block)
	case c.n%c.block != 0:
		return c, fmt.Errorf("n=%d does not tile into %d×%d blocks", c.n, c.block, c.block)
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fs := flagSet(new(config))
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stdout)
			fs.Usage()
			return
		}
		fmt.Fprintf(os.Stderr, "cavity: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	n, iters := cfg.n, cfg.iters
	c, points, dim := mfix.NewCavity2D(n, cfg.re), n*n, "²"
	if cfg.dim == 3 {
		c, points, dim = mfix.NewCavity(n, cfg.re), n*n*n, "³"
	}
	var wafer *kernels.WaferBackend
	if cfg.backend == "wse" {
		mcfg, mapping := wse.CS1(n, n), fmt.Sprintf("Listing 1 with Z = %d", n)
		if cfg.dim == 2 {
			mcfg, mapping = wse.CS1(n/cfg.block, n/cfg.block), fmt.Sprintf("%d×%d blocks", cfg.block, cfg.block)
		}
		mcfg.Workers = cfg.workers
		mach := wse.New(mcfg)
		if cfg.dim == 3 {
			wafer = kernels.NewWafer3DBackend(mach)
		} else {
			wafer = kernels.NewWafer2DBackend(mach, cfg.block)
		}
		// Close stops the fabric's helper goroutines; without it a
		// long-lived host would park them until GC.
		defer wafer.Close()
		c.Pressure = wafer
		fmt.Printf("pressure solve on simulated %d×%d fabric (%s engine, %d-shard fabric), %s\n",
			mcfg.FabricW, mcfg.FabricH, mach.EngineName(), len(mach.Fab.ShardRanges()), mapping)
	}

	res, err := c.Run(iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lid-driven cavity %d%s, Re=%g, %d SIMPLE iterations, pressure backend %s\n",
		n, dim, cfg.re, iters, c.Pressure.Name())
	for i, r := range res {
		if i%5 == 0 || i == len(res)-1 {
			fmt.Printf("  iter %3d: mass %.3e  momentum-change %.3e\n", i+1, r.Mass, r.Momentum)
		}
	}
	if wafer != nil {
		fmt.Printf("wafer pressure solver: %d BiCGStab iterations over %d solves\n",
			wafer.Iterations, wafer.Solves)
		fmt.Printf("  simulated cycles %d (spmv %d, dot %d, allreduce %d, axpy %d)\n",
			wafer.Cycles.Total(), wafer.Cycles.SpMV, wafer.Cycles.Dot,
			wafer.Cycles.AllReduce, wafer.Cycles.Axpy)
		if wafer.Iterations > 0 {
			perPt := float64(wafer.Cycles.Total()) / float64(wafer.Iterations) / float64(points)
			fmt.Printf("  %.3f cycles/meshpoint per solver iteration\n", perPt)
		}
	}
	fmt.Println("centreline u-velocity (bottom -> lid):")
	for j, u := range c.CenterlineU() {
		y := (float64(j) + 0.5) / float64(n)
		fmt.Printf("  y=%.3f  u=%+.4f\n", y, u)
	}
}
