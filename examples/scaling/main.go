// Scaling study (Figures 7 and 8): strong scaling of the BiCGStab
// iteration on the modelled Joule cluster for the paper's two mesh
// sizes, and a host-side study of the simulator's own sharded stepping
// engine (sequential vs sharded fabric stepping over growing fabrics).
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/stencil"
)

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shards (fabric.Sharded) for the sharded simulator study")
	simCycles := flag.Int("sim-cycles", 300, "cycles per simulator measurement")
	flag.Parse()

	cfg := cluster.Joule()
	for _, tc := range []struct {
		name string
		m    stencil.Mesh
	}{{"370³ (Figure 7)", cluster.Fig7Mesh}, {"600³ (Figure 8)", cluster.Fig8Mesh}} {
		fmt.Printf("%s — modelled ms/iteration on Joule\n", tc.name)
		pts := cluster.StrongScaling(cfg, tc.m, cluster.PublishedCores)
		for _, p := range pts {
			fmt.Printf("  %6d cores  %8.2f ms   speedup %.1f×\n", p.Cores, p.Seconds*1e3, p.SpeedupVs1)
		}
	}
	fmt.Printf("CS-1 measured 28.1 µs/iteration => %.0f× the 16K-core cluster (paper: ~214×)\n\n",
		cfg.IterationTime(cluster.Fig8Mesh, 16384).Total()/28.1e-6)

	// Host-side scaling of the cycle simulator itself: step a saturated
	// fabric with the Sequential and Sharded engines. Simulated state is
	// bit-identical (same words moved); only wall-clock changes, and only
	// on a multi-core host.
	fmt.Printf("simulator engine scaling (GOMAXPROCS=%d, %d shards, %d cycles/point)\n",
		runtime.GOMAXPROCS(0), *workers, *simCycles)
	for _, size := range []int{16, 32, 64, 128} {
		seqNS, seqMoves := timeEngine(size, *simCycles, fabric.Sequential())
		shNS, shMoves := timeEngine(size, *simCycles, fabric.Sharded(*workers))
		if seqMoves != shMoves {
			log.Fatalf("engines disagree on %d×%d: %d vs %d words moved", size, size, seqMoves, shMoves)
		}
		fmt.Printf("  %3d×%-3d  seq %8.1f µs/cycle   sharded %8.1f µs/cycle   speedup %.2f×   (%d words/cycle)\n",
			size, size, float64(seqNS)/float64(*simCycles)/1e3,
			float64(shNS)/float64(*simCycles)/1e3,
			float64(seqNS)/float64(shNS), seqMoves/int64(*simCycles))
	}
}

// timeEngine steps a saturated size×size fabric (the canonical
// fabric.BuildFlows pattern: four directional flows, every router
// moving words on all mesh links) for cycles cycles and returns the
// elapsed nanoseconds and total words moved.
func timeEngine(size, cycles int, st *fabric.Stepper) (int64, int64) {
	f := fabric.New(fabric.Config{W: size, H: size, Stepper: st})
	defer f.Close()
	fabric.BuildFlows(f)
	for warm := 0; warm < 2*size; warm++ {
		fabric.DriveFlows(f)
	}
	moves0 := f.Moves()
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		fabric.DriveFlows(f)
	}
	return time.Since(t0).Nanoseconds(), f.Moves() - moves0
}
