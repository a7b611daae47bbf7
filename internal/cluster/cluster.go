// Package cluster models the paper's CPU baseline: the NETL Joule 2.0
// supercomputer (HPE ProLiant nodes, dual Intel Xeon Gold 6148, Intel
// Omni-Path) running the BiCGStab solve inside MFIX in 64-bit arithmetic,
// as a *timing model* for strong scaling (Figures 7 and 8): per-rank
// memory-bandwidth-bound SpMV sweeps, per-message halo latency, and a
// collective/jitter term that grows with rank count. The constants are
// calibrated to the two published anchors — 75 ms/iteration at 1,024
// cores and ~6 ms at 16,384 cores on the 600³ mesh — and then reproduce
// the published *shape*: the 370³ mesh stops strong-scaling beyond 8K
// cores, and the CS-1 outruns the 16K-core cluster by ~214×. The
// package runs no solve; the exact sum the wafer backends combine their
// dots with is internal/exact.
package cluster

import (
	"math"

	"repro/internal/stencil"
)

// Config holds the cluster timing parameters. Defaults (Joule) are
// calibrated; see the package comment and EXPERIMENTS.md.
type Config struct {
	CoresPerNode int
	// MemBWPerNode is the effective per-node memory bandwidth sustained
	// by the solver sweeps (bytes/s).
	MemBWPerNode float64
	// FlopsPerCore is the effective double-precision rate per core; the
	// paper's intro notes HPCG-class codes sustain 0.5–3.1% of peak.
	FlopsPerCore float64
	// BytesPerPoint is the memory traffic one BiCGStab iteration moves
	// per meshpoint (matrix diagonals, vector reads/writes, in float64).
	BytesPerPoint float64
	// HaloLatency is the per-message cost of a neighbour exchange.
	HaloLatency float64
	// HaloBandwidth is the per-node network bandwidth (bytes/s).
	HaloBandwidth float64
	// CollFixed + CollPerRank model the four blocking allreduces plus
	// synchronization jitter per iteration.
	CollFixed   float64
	CollPerRank float64
}

// Joule returns the calibrated Joule 2.0 model.
func Joule() Config {
	return Config{
		CoresPerNode:  40,      // dual 20-core Xeon 6148
		MemBWPerNode:  28.4e9,  // effective; calibrated to 75 ms @ 1024 cores, 600³
		FlopsPerCore:  1.0e9,   // ~1.3% of 76.8 Gflop/s peak, HPCG-class
		BytesPerPoint: 250,     // 6 diagonals + ~5 vector sweeps per iteration, fp64 with partial reuse
		HaloLatency:   5e-6,    // MPI pt2pt over Omni-Path
		HaloBandwidth: 12.5e9,  // 100 Gb/s
		CollFixed:     480e-6,  // blocking allreduces + barrier floor
		CollPerRank:   58.6e-9, // jitter growth per rank
	}
}

// Decompose3D factors p ranks into a px×py×pz grid that balances the
// block aspect ratio for the given mesh.
func Decompose3D(m stencil.Mesh, p int) (px, py, pz int) {
	best := math.MaxFloat64
	px, py, pz = p, 1, 1
	for i := 1; i <= p; i++ {
		if p%i != 0 {
			continue
		}
		for j := 1; j <= p/i; j++ {
			if (p/i)%j != 0 {
				continue
			}
			k := p / i / j
			// Surface-to-volume of the resulting block.
			bx, by, bz := float64(m.NX)/float64(i), float64(m.NY)/float64(j), float64(m.NZ)/float64(k)
			if bx < 1 || by < 1 || bz < 1 {
				continue
			}
			s := bx*by + by*bz + bx*bz
			if s < best {
				best = s
				px, py, pz = i, j, k
			}
		}
	}
	return
}

// IterBreakdown reports where one modelled iteration's time goes.
type IterBreakdown struct {
	Mem, Flop, Halo, Coll float64
}

// Total returns the iteration time: local work is the max of the memory
// and flop streams; communication adds on top (the implementation is not
// communication-hiding, like the paper's).
func (b IterBreakdown) Total() float64 {
	local := math.Max(b.Mem, b.Flop)
	return local + b.Halo + b.Coll
}

// IterationTime models one 64-bit BiCGStab iteration of an X×Y×Z mesh on
// the given core count.
func (c Config) IterationTime(m stencil.Mesh, cores int) IterBreakdown {
	n := float64(m.N())
	nodes := float64(cores) / float64(c.CoresPerNode)
	px, py, pz := Decompose3D(m, cores)
	bx := float64(m.NX) / float64(px)
	by := float64(m.NY) / float64(py)
	bz := float64(m.NZ) / float64(pz)
	surface := 2 * (bx*by + by*bz + bx*bz) // points per rank boundary

	var b IterBreakdown
	b.Mem = c.BytesPerPoint * n / (nodes * c.MemBWPerNode)
	b.Flop = 44 * n / float64(cores) / c.FlopsPerCore
	// Two SpMVs per iteration, six neighbour messages each; bandwidth
	// term charged at the node level (CoresPerNode ranks share the NIC).
	haloBytesPerNode := surface * 8 * float64(c.CoresPerNode)
	b.Halo = 2 * (6*c.HaloLatency + haloBytesPerNode/c.HaloBandwidth)
	b.Coll = c.CollFixed + c.CollPerRank*float64(cores)
	return b
}

// ScalingPoint is one row of Figure 7/8.
type ScalingPoint struct {
	Cores      int
	Seconds    float64
	Breakdown  IterBreakdown
	SpeedupVs1 float64 // relative to the smallest core count in the sweep
}

// StrongScaling sweeps core counts for a mesh, reproducing the published
// figures' series.
func StrongScaling(c Config, m stencil.Mesh, coreCounts []int) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(coreCounts))
	var base float64
	for i, p := range coreCounts {
		b := c.IterationTime(m, p)
		sp := ScalingPoint{Cores: p, Seconds: b.Total(), Breakdown: b}
		if i == 0 {
			base = sp.Seconds
		}
		sp.SpeedupVs1 = base / sp.Seconds
		out = append(out, sp)
	}
	return out
}

// Fig7Mesh and Fig8Mesh are the two published problem sizes.
var (
	Fig7Mesh = stencil.Mesh{NX: 370, NY: 370, NZ: 370}
	Fig8Mesh = stencil.Mesh{NX: 600, NY: 600, NZ: 600}
)

// PublishedCores is the core-count sweep of Figures 7 and 8.
var PublishedCores = []int{1024, 2048, 4096, 8192, 16384}
