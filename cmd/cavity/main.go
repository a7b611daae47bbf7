// Command cavity runs the MFIX-style SIMPLE solver on the lid-driven
// cavity and prints residual history and the vertical centreline
// u-velocity profile.
//
// The 2D cavity (default) supports two pressure-solve backends:
//
//	-backend=host   float64 BiCGStab in-process (fast reference)
//	-backend=wse    the pressure-correction BiCGStab cycle-simulated on
//	                a wafer fabric of (n/block)² tiles through the §IV-2
//	                block-halo mapping, with measured cycles reported
//
// The paper-style headline run is the Table II cavity on a sharded
// 128×128 fabric:
//
//	cavity -backend=wse -n 256 -block 2 -workers 8 -iters 5
//
// (minutes of host time: every pressure solve steps the full machine
// cycle by cycle). -dim=3 selects the original 3D cavity, which is
// host-only.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/wse"
)

// fatalUsage reports a flag-validation error with the usage text and a
// non-zero exit.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cavity: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	dim := flag.Int("dim", 2, "cavity dimensionality: 2 (wafer-capable) or 3 (host only)")
	n := flag.Int("n", 16, "cells per side")
	re := flag.Float64("re", 100, "Reynolds number")
	iters := flag.Int("iters", 40, "SIMPLE iterations")
	backend := flag.String("backend", "host", "pressure-solve backend: host | wse (2D only)")
	block := flag.Int("block", 2, "wse backend: block edge b; the fabric is (n/b)² tiles")
	workers := flag.Int("workers", 1, "wse backend: simulation engine workers (>1 shards the fabric)")
	flag.Parse()

	if *n <= 0 || *iters <= 0 {
		fatalUsage("-n and -iters must be positive (got n=%d, iters=%d)", *n, *iters)
	}
	if *dim == 3 {
		if *backend != "host" {
			fatalUsage("the 3D cavity has no %q backend; the wafer path is the 2D block-halo mapping", *backend)
		}
		run3D(*n, *re, *iters)
		return
	}
	if *dim != 2 {
		fatalUsage("unsupported -dim=%d", *dim)
	}

	c := mfix.NewCavity2D(*n, *re)
	var wafer *kernels.WaferBackend
	switch *backend {
	case "host":
	case "wse":
		if *block <= 0 {
			fatalUsage("-block must be positive; got %d", *block)
		}
		if *n%*block != 0 {
			fatalUsage("n=%d does not tile into %d×%d blocks", *n, *block, *block)
		}
		cfg := wse.CS1(*n / *block, *n / *block)
		cfg.Workers = *workers
		mach := wse.New(cfg)
		wafer = kernels.NewWafer2DBackend(mach, *block)
		// Close releases the sharded engine's worker pool; without it a
		// long-lived host would park pool goroutines until GC.
		defer wafer.Close()
		c.Pressure = wafer
		fmt.Printf("pressure solve on simulated %d×%d fabric (%s engine), %d×%d blocks\n",
			cfg.FabricW, cfg.FabricH, mach.Fab.StepperName(), *block, *block)
	default:
		fatalUsage("unknown backend %q", *backend)
	}

	res, err := c.Run(*iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lid-driven cavity %d², Re=%g, %d SIMPLE iterations, pressure backend %s\n",
		*n, *re, *iters, c.Pressure.Name())
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
			perPt := float64(wafer.Cycles.Total()) / float64(wafer.Iterations) / float64(*n**n)
			fmt.Printf("  %.3f cycles/meshpoint per solver iteration\n", perPt)
		}
	}
	fmt.Println("centreline u-velocity (bottom -> lid):")
	for j, u := range c.CenterlineU() {
		y := (float64(j) + 0.5) / float64(*n)
		fmt.Printf("  y=%.3f  u=%+.4f\n", y, u)
	}
}

func run3D(n int, re float64, iters int) {
	c := mfix.NewCavity(n, re)
	res, err := c.Run(iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lid-driven cavity %d³, Re=%g, %d SIMPLE iterations\n", n, re, iters)
	for i, r := range res {
		if i%5 == 0 || i == len(res)-1 {
			fmt.Printf("  iter %3d: mass %.3e  momentum-change %.3e\n", i+1, r.Mass, r.Momentum)
		}
	}
	fmt.Println("centreline u-velocity (bottom -> lid):")
	for j, u := range c.CenterlineU() {
		y := (float64(j) + 0.5) / float64(n)
		fmt.Printf("  y=%.3f  u=%+.4f\n", y, u)
	}
}
