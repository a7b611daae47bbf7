package perfmodel

import "math"

// This file extends the analytic models past one wafer: the
// internal/multiwafer backend couples a grid of wafers through their
// edge I/O, and these functions reproduce its cycle accounting — they
// are calibrated against (and pinned to, see the multiwafer package's
// model test) the cycle simulator at small scale, then extrapolated to
// grids of full 602×595 wafers that would take hours to simulate.

// EdgeIO models the host-side interconnect between adjacent wafers: a
// fixed per-transfer latency plus bytes over the per-edge-face
// bandwidth. It mirrors multiwafer.Interconnect (kept separate so the
// model layer stays dependency-free).
type EdgeIO struct {
	LatencySec   float64
	BandwidthBps float64
}

// DefaultEdgeIO matches multiwafer.DefaultInterconnect: 1 µs latency
// and the CS-1's 1.2 Tb/s of edge I/O granted to each face.
func DefaultEdgeIO() EdgeIO { return EdgeIO{LatencySec: 1e-6, BandwidthBps: 1.2e12} }

// transferSeconds returns the modelled time to move bytes across one
// wafer edge face.
func (io EdgeIO) transferSeconds(bytes int) float64 {
	return io.LatencySec + 8*float64(bytes)/io.BandwidthBps
}

// HaloSpMVCycles models one application of the halo-resident 3D SpMV
// (stencilc.Spec7Point's Program3D) on a w×h wafer holding part of a meshX×meshY
// (×z) mesh. The busiest tile pays its halo-column sends serialized
// through the one-word-per-cycle ramp — (sx+sy)·z/2 cycles for sx+sy
// on-fabric neighbour directions, two fp16 per word — then its compute
// task: 3 + tx + ty tensor instructions (zm, zp, diagonal, plus one
// per in-mesh lateral term) at four lanes per cycle, plus two cycles
// of thread start/drain when any exchange ran. Exact against the
// simulator on every measured shape (TestModelMatchesSimulator in the
// multiwafer package).
func HaloSpMVCycles(w, h, z, meshX, meshY int) float64 {
	min2 := func(n int) int {
		if n > 2 {
			return 2
		}
		if n < 0 {
			return 0
		}
		return n
	}
	sends := (min2(w-1) + min2(h-1)) * z / 2
	instrs := 3 + min2(meshX-1) + min2(meshY-1)
	compute := instrs * int(math.Ceil(float64(z)/4))
	if sends == 0 {
		return float64(compute)
	}
	return float64(sends + compute + 2)
}

// MWBreakdown is the per-iteration cycle budget of the multiwafer
// backend: the four simulated on-wafer phases (which the overhead
// factor Eta scales, as on one wafer) plus the two host-modelled
// inter-wafer terms (which it does not — they are already wall-clock
// calibrated).
type MWBreakdown struct {
	SpMV, EdgeIO, Dot, AllReduce, Combine, Axpy float64
	Eta                                         float64
}

// OnWafer returns the simulated on-wafer cycles per iteration.
func (b MWBreakdown) OnWafer() float64 { return b.SpMV + b.Dot + b.AllReduce + b.Axpy }

// Total returns the modelled iteration cycle count.
func (b MWBreakdown) Total() float64 { return b.OnWafer()*b.Eta + b.EdgeIO + b.Combine }

// CommFraction returns the share of the iteration spent off the tile
// datapaths: on-wafer reduction plus everything crossing a wafer edge.
func (b MWBreakdown) CommFraction() float64 {
	return (b.AllReduce*b.Eta + b.EdgeIO + b.Combine) / b.Total()
}

// splitSizes returns the two block sizes SplitExtent-style even
// partitioning produces: lo = n/p, and hi = lo+1 when p does not
// divide n (otherwise hi = lo).
func splitSizes(n, p int) (lo, hi int) {
	lo = n / p
	hi = lo
	if n%p != 0 {
		hi++
	}
	return
}

// MultiWaferIterationCycles models one BiCGStab iteration of an X×Y×Z
// mesh cut across a gw×gh grid of wafers, mirroring the backend's
// accounting: simulated phases charge the slowest wafer (the maximum
// over the sub-extents an even split produces — relevant because the
// AllReduce is parity-aware, so a smaller odd-sized wafer can out-cost
// a larger even one), halo transfers charge the largest edge face, and
// each of the four dots pays the two-level combine's scalar hops.
func (m IterModel) MultiWaferIterationCycles(x, y, z, gw, gh int, clockHz float64, io EdgeIO) MWBreakdown {
	wLo, wHi := splitSizes(x, gw)
	hLo, hHi := splitSizes(y, gh)
	ceilc := func(sec float64) float64 { return math.Ceil(sec * clockHz) }

	var spmv, ar float64
	for _, w := range []int{wLo, wHi} {
		for _, h := range []int{hLo, hHi} {
			spmv = math.Max(spmv, HaloSpMVCycles(w, h, z, x, y))
			sub := WSE{W: w, H: h, ClockHz: clockHz, SIMD: 4}
			ar = math.Max(ar, sub.AllReduceCycles())
		}
	}

	var edge float64
	if gw > 1 || gh > 1 {
		var face float64
		if gw > 1 {
			face = math.Max(face, io.transferSeconds(hHi*z*2))
		}
		if gh > 1 {
			face = math.Max(face, io.transferSeconds(wHi*z*2))
		}
		edge = 2 * ceilc(face)
	}
	var combine float64
	if gw*gh > 1 {
		hops := float64(gw + gh - 2)
		combine = 4 * ceilc(2*io.transferSeconds(4)*hops)
	}
	return MWBreakdown{
		SpMV:      2 * spmv,
		EdgeIO:    edge,
		Dot:       4 * float64(z) / 2,
		AllReduce: 4 * ar,
		Combine:   combine,
		Axpy:      6 * math.Ceil(float64(z)/4),
		Eta:       m.Eta,
	}
}

// MultiWaferPoint is one row of a wafer-count scaling study. For a
// strong-scaling sweep (fixed mesh) Speedup is iteration-time speedup
// over the first grid and Efficiency normalizes it by wafer-count
// growth; for a weak-scaling sweep (mesh grows with the grid) Speedup
// is the throughput ratio in meshpoints per second and Efficiency is
// the iteration-time ratio T(first)/T(n), which is 1 for perfect weak
// scaling.
type MultiWaferPoint struct {
	GridW, GridH, Wafers int
	Breakdown            MWBreakdown
	IterMicros           float64
	Speedup              float64
	Efficiency           float64
}

// MultiWaferScaling sweeps wafer grids for a fixed X×Y×Z mesh — strong
// scaling. Because the 3D mapping is embarrassingly parallel in X×Y
// (per-iteration time depends on Z, not on how many columns a wafer
// holds), cutting a mesh that already fits one wafer cannot go faster:
// the sweep quantifies what the added edge I/O and combine latency
// cost, against the one saving of a smaller on-wafer AllReduce. The
// genuine scale-out win is capacity — see MultiWaferWeakScaling.
// Speedup and efficiency are relative to the first grid in the sweep.
func (m IterModel) MultiWaferScaling(x, y, z int, grids [][2]int, clockHz float64, io EdgeIO) []MultiWaferPoint {
	out := make([]MultiWaferPoint, 0, len(grids))
	var base float64
	var baseWafers int
	for i, g := range grids {
		b := m.MultiWaferIterationCycles(x, y, z, g[0], g[1], clockHz, io)
		sec := b.Total() / clockHz
		p := MultiWaferPoint{
			GridW: g[0], GridH: g[1], Wafers: g[0] * g[1],
			Breakdown: b, IterMicros: sec * 1e6,
		}
		if i == 0 {
			base = sec
			baseWafers = p.Wafers
		}
		p.Speedup = base / sec
		p.Efficiency = p.Speedup / (float64(p.Wafers) / float64(baseWafers))
		out = append(out, p)
	}
	return out
}

// MultiWaferWeakScaling grows the mesh with the grid: each wafer keeps
// a perX×perY×z sub-extent, so a gw×gh grid solves a
// (gw·perX)×(gh·perY)×z mesh — the paper-motivated direction, problems
// too big for one wafer at near-constant iteration time. Speedup is
// the throughput ratio (meshpoints per second vs the first grid) and
// Efficiency the iteration-time ratio T(first)/T(n).
func (m IterModel) MultiWaferWeakScaling(perX, perY, z int, grids [][2]int, clockHz float64, io EdgeIO) []MultiWaferPoint {
	out := make([]MultiWaferPoint, 0, len(grids))
	var baseSec, baseRate float64
	for i, g := range grids {
		x, y := g[0]*perX, g[1]*perY
		b := m.MultiWaferIterationCycles(x, y, z, g[0], g[1], clockHz, io)
		sec := b.Total() / clockHz
		rate := float64(x) * float64(y) * float64(z) / sec
		p := MultiWaferPoint{
			GridW: g[0], GridH: g[1], Wafers: g[0] * g[1],
			Breakdown: b, IterMicros: sec * 1e6,
		}
		if i == 0 {
			baseSec, baseRate = sec, rate
		}
		p.Speedup = rate / baseRate
		p.Efficiency = baseSec / sec
		out = append(out, p)
	}
	return out
}
