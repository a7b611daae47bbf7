// Cavity flow: the MFIX-style SIMPLE algorithm (Algorithm 2) on the
// lid-driven cavity — the model problem behind the paper's CPU-cluster
// baseline — in three stages: the 3D host solver, the 2D cavity with
// its pressure-correction BiCGStab cycle-simulated on a wafer fabric
// (the Table II workload wafer-resident, §VI-A), and the Table II
// projection of MFIX onto the CS-1.
package main

import (
	"fmt"
	"log"

	"repro/internal/kernels"
	"repro/internal/mfix"
	"repro/internal/perfmodel"
	"repro/internal/wse"
)

func main() {
	c := mfix.NewCavity(10, 100)
	res, err := c.Run(50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("lid-driven cavity, 10³ cells, Re=100 (host, fp64)")
	for i, r := range res {
		if i%10 == 0 || i == len(res)-1 {
			fmt.Printf("  SIMPLE iter %2d: mass imbalance %.2e, velocity change %.2e\n",
				i+1, r.Mass, r.Momentum)
		}
	}
	fmt.Println("\ncentreline u (bottom -> lid):")
	for _, u := range c.CenterlineU() {
		bar := ""
		for i := 0; i < int(40*(u+0.3)); i++ {
			bar += "#"
		}
		fmt.Printf("  %+.3f %s\n", u, bar)
	}

	// The 2D cavity with the pressure solve on the simulated wafer: a
	// 16² mesh in 2×2 blocks on an 8×8 fabric, every pressure-correction
	// BiCGStab iteration cycle-stepped through the 2D block-halo SpMV.
	// cmd/cavity -backend=wse runs the same path at the 128×128 fabric.
	wafer := kernels.NewWafer2DBackend(wse.New(wse.CS1(8, 8)), 2)
	defer wafer.Close() // stop the fabric's helper goroutines
	c2 := mfix.NewCavity2D(16, 100)
	c2.Pressure = wafer
	res2, err := c2.Run(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n2D cavity, 16² cells, pressure solve on a simulated 8×8 fabric:")
	for i, r := range res2 {
		if i%3 == 0 || i == len(res2)-1 {
			fmt.Printf("  SIMPLE iter %2d: mass imbalance %.2e (fp16 wafer solve)\n", i+1, r.Mass)
		}
	}
	fmt.Printf("  %d solver iterations, %d simulated cycles (allreduce %d)\n",
		wafer.Iterations, wafer.Cycles.Total(), wafer.Cycles.AllReduce)

	pr := mfix.ProjectCS1(perfmodel.PaperModel(), 600, 600, 600, mfix.PaperSimpleParams())
	fmt.Printf("\nCS-1 projection for 600³ MFIX (Table II + calibrated solver):\n")
	fmt.Printf("  %.0f-%.0f timesteps/s (paper: 80-125) — real-time-class CFD\n",
		pr.StepsPerSecond.Min, pr.StepsPerSecond.Max)
}
