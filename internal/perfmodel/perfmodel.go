// Package perfmodel contains the analytic performance models of the
// reproduction. The paper validates a simple performance model against
// measurements and uses it to predict the effect of changing mesh size
// and shape; we clone that methodology: the models below are calibrated
// once against the cycle-level simulator (internal/wse + internal/kernels)
// at small fabric sizes, validated against it across shapes (see the
// package tests), and then extrapolated to the full 602×595 wafer that is
// too large to simulate cycle by cycle.
//
// Two calibrations are reported everywhere:
//
//   - the *simulator* model (Eta = 1), which extrapolates our idealized
//     executor — global phase sequencing with free scalar propagation and
//     zero instruction-issue overhead;
//   - the *paper-calibrated* model (Eta = PaperEta), a single scalar
//     fitted so the model reproduces the measured 28.1 µs/iteration at
//     600×595×1536; the same Eta is then used unchanged for every other
//     projection (PFLOPS, MFIX, cluster speedups).
package perfmodel

// WSE describes a wafer for modelling purposes.
type WSE struct {
	W, H    int     // fabric extent
	ClockHz float64 // core clock (see DESIGN.md §6 for the 1.1 GHz choice)
	SIMD    int     // fp16 datapath lanes
}

// CS1 returns the machine of the paper: a 602×595 compute fabric.
func CS1() WSE {
	return WSE{W: 602, H: 595, ClockHz: 1.1e9, SIMD: 4}
}

// cores returns the core count.
func (w WSE) cores() int { return w.W * w.H }

// peakFlops is the peak fp16 rate: SIMD FMACs (2 flops) per core-cycle.
func (w WSE) peakFlops() float64 {
	return float64(w.cores()) * float64(2*w.SIMD) * w.ClockHz
}

// AllReduceCycles models the Figure 6 reduction+broadcast, calibrated
// against the cycle simulator across fabric shapes *including parity*:
//
//   - each even dimension has a pair of central rows/columns that split
//     the serialized reduction stream, so its drain is n/2 − 1 words at
//     one word per cycle per link — the configuration the paper's
//     "pair of central rows/columns" argument assumes;
//   - each odd dimension has a single central line which must absorb
//     both halves, n − 1 words, through its one-word-per-cycle ramp,
//     doubling that drain;
//   - the broadcast returns over ⌊w/2⌋ + ⌊h/2⌋ hops to the far corner;
//   - a small constant covers the phase hand-offs plus the 4:1 quad
//     reduction, which has one more serialized operand per even
//     dimension (3 + 2·evens);
//   - a dimension of extent ≤ 2 consists entirely of central lines, so
//     its reduction phase vanishes — and with it one phase hand-off
//     (−1 per such dimension). Degenerate fabrics this narrow appear
//     when the multiwafer backend cuts a small mesh finely; the paper
//     wafer never hits this branch.
//
// The formula reproduces the simulator exactly on every shape measured
// (see TestAllReduceModelMatchesSimulator). On even×even fabrics it
// reduces to the old diameter + 7 — which is why the earlier model,
// calibrated only on even shapes, silently under-predicted the 602×595
// wafer (h = 595 is odd): the simulator measures 1497 cycles = 1.36 µs,
// ~1.25× the diameter, still under the paper's 1.5 µs bound but above
// its ~1.1× diameter shape. TestAllReducePaperScalePin and the
// paper-scale simulation test in internal/core pin model and simulator
// to each other so they cannot drift apart again.
func (w WSE) AllReduceCycles() float64 {
	drain := func(n int) int {
		if n%2 == 0 {
			return n/2 - 1 // paired central lines split the stream
		}
		return n - 1 // single central line absorbs both halves
	}
	evens := 0
	if w.W%2 == 0 {
		evens++
	}
	if w.H%2 == 0 {
		evens++
	}
	narrow := 0
	if w.W <= 2 {
		narrow++
	}
	if w.H <= 2 {
		narrow++
	}
	return float64(drain(w.W) + drain(w.H) + w.W/2 + w.H/2 + 3 + 2*evens - narrow)
}

// AllReduceSeconds converts AllReduceCycles to wall clock.
func (w WSE) AllReduceSeconds() float64 { return w.AllReduceCycles() / w.ClockHz }

// IterModel holds the per-kernel cycle coefficients of one BiCGStab
// iteration, as functions of the local column length Z.
type IterModel struct {
	// SpMV: one application moves five Z-element streams through the ramp
	// (two fp16 per word) and ~11Z fp16 lane-operations through the
	// SIMD-4 datapath; the simulator measures ~3 cycles per z-element.
	SpMVPerZ, SpMVFixed float64
	// Dot: the mixed inner-product instruction retires two FMACs/cycle.
	DotPerZ, DotFixed float64
	// AXPY: SIMD-4, one FMAC per element, four elements per cycle.
	AxpyPerZ, AxpyFixed float64
	// Eta multiplies the composed total: task-start latency, barrier
	// trees, and issue overheads not present in the idealized executor.
	Eta float64
}

// PaperEta is the single calibration constant fitted to the paper's
// measured 28.1 µs/iteration at 600×595×1536 on the 602×595 fabric.
// TestCalibrateEtaRoundTrip fits it again. (Recalibrated from 1.591 when
// AllReduceCycles became parity-aware: the 602×595 AllReduce costs 1497
// cycles, not 1202, so less of the measured time is unexplained
// overhead.)
const PaperEta = 1.4996

// SimModel returns the coefficients measured from the cycle simulator
// (Eta = 1): SpMV ≈ 3.0·Z + 6 per application, dots Z/2, AXPYs Z/4,
// AllReduce per the parity-aware AllReduceCycles formula.
func SimModel() IterModel {
	return IterModel{
		SpMVPerZ: 3.0, SpMVFixed: 6,
		DotPerZ: 0.5, DotFixed: 2,
		AxpyPerZ: 0.25, AxpyFixed: 2,
		Eta: 1,
	}
}

// PaperModel returns the simulator coefficients with Eta = PaperEta.
func PaperModel() IterModel {
	m := SimModel()
	m.Eta = PaperEta
	return m
}

// Breakdown is a per-iteration cycle budget.
type Breakdown struct {
	SpMV, Dot, AllReduce, Axpy float64
	Eta                        float64
}

// Total returns the iteration cycle count including the overhead factor.
func (b Breakdown) Total() float64 {
	return (b.SpMV + b.Dot + b.AllReduce + b.Axpy) * b.Eta
}

// IterationCycles models one BiCGStab iteration: 2 SpMVs, 4 dots,
// 4 blocking AllReduces, 6 AXPYs (Table I's kernel structure).
func (m IterModel) IterationCycles(w WSE, z int) Breakdown {
	zf := float64(z)
	return Breakdown{
		SpMV:      2 * (m.SpMVPerZ*zf + m.SpMVFixed),
		Dot:       4 * (m.DotPerZ*zf + m.DotFixed),
		AllReduce: 4 * w.AllReduceCycles(),
		Axpy:      6 * (m.AxpyPerZ*zf + m.AxpyFixed),
		Eta:       m.Eta,
	}
}

// IterationSeconds is the modelled wall-clock time per iteration.
func (m IterModel) IterationSeconds(w WSE, z int) float64 {
	return m.IterationCycles(w, z).Total() / w.ClockHz
}

// FlopsPerIteration follows Table I: 44 operations per meshpoint.
func FlopsPerIteration(x, y, z int) float64 {
	return 44 * float64(x) * float64(y) * float64(z)
}

// PFLOPS returns the modelled sustained rate for an X×Y×Z problem whose
// X×Y extent covers the fabric.
func (m IterModel) PFLOPS(w WSE, x, y, z int) float64 {
	return FlopsPerIteration(x, y, z) / m.IterationSeconds(w, z) / 1e15
}

// FractionOfPeak returns sustained/peak.
func (m IterModel) FractionOfPeak(w WSE, x, y, z int) float64 {
	return m.PFLOPS(w, x, y, z) * 1e15 / w.peakFlops()
}

// ---------------------------------------------------------------- memory

// WordBytes is the fp16 storage width.
const WordBytes = 2

// TileVectorWords is the paper's §IV accounting for the 3D mapping: six
// stored diagonals plus four solver vectors, 10·Z words per tile ("with
// Z = 1536 we are using about 31KB out of 48KB").
func TileVectorWords(z int) int { return 10 * z }

// TileVectorBytes converts TileVectorWords to bytes.
func TileVectorBytes(z int) int { return TileVectorWords(z) * WordBytes }

// MaxZ returns the largest Z whose 10Z-word footprint fits the budget.
func MaxZ(memBytes int) int { return memBytes / WordBytes / 10 }

// ------------------------------------------------------- 2D 9-point model

// Words2D is the per-tile footprint of the 2D mapping with a b×b block:
// seventeen block-sized arrays — nine coefficient diagonals, the iterate,
// the result with its folded output halo, and the BiCGStab work vectors
// ("a matrix, halo, and vector (as well as all terms needed for BiCG)") —
// plus a small fixed overhead. Solving 17·b² ≤ 24576 words gives b ≤ 38,
// the paper's maximum block ("a sub-block up-to 38x38 in size,
// corresponding to geometries of 22800x22800").
func Words2D(b int) int { return 17*b*b + 16 }

// MaxBlock2D returns the largest block edge that fits the byte budget.
func MaxBlock2D(memBytes int) int {
	words := memBytes / WordBytes
	b := 0
	for Words2D(b+1) <= words {
		b++
	}
	return b
}

// Overhead2D is the fraction of non-useful work in the 2D mapping at
// block size b: the uncredited main-diagonal multiply-accumulate (2b² of
// the 18b² ops — "we should not receive performance credit for this
// operation") plus the redundant halo summations (8b + 8 adds per tile),
// relative to the 16b² useful ops. Overhead2D(8) ≈ 19.5%, matching the
// paper's "the overhead remains less than 20%" for 8×8 blocks, and
// declines toward the 12.5% diagonal floor at 38×38.
func Overhead2D(b int) float64 {
	useful := 16 * float64(b) * float64(b)
	extra := 2*float64(b)*float64(b) + 8*float64(b) + 8
	return extra / useful
}

// ------------------------------------------------------ machine balance

// BalanceEntry is one point of Figure 1: the flops a machine can perform
// per word of memory traffic and per word of interconnect traffic.
type BalanceEntry struct {
	System              string
	Year                int
	FlopsPerWordMemory  float64
	FlopsPerWordNetwork float64
	WaferScale          bool
}

// MachineBalance returns representative machine-balance points in the
// spirit of Figure 1 (which plots McCalpin's survey): conventional
// CPU-based systems sit at hundreds of flops per memory word and
// thousands per network word and drift upward; the CS-1 sits near one.
// CPU entries are order-of-magnitude characterizations of the published
// trend line, not measurements; the CS-1 entry follows the paper (memory
// bandwidth of three bytes per flop; fabric injection bandwidth of one
// fourth the peak compute rate).
func MachineBalance() []BalanceEntry {
	return []BalanceEntry{
		{System: "Vector era (Cray-like)", Year: 1990, FlopsPerWordMemory: 4, FlopsPerWordNetwork: 16},
		{System: "Commodity cluster", Year: 2000, FlopsPerWordMemory: 40, FlopsPerWordNetwork: 400},
		{System: "Multicore node", Year: 2008, FlopsPerWordMemory: 100, FlopsPerWordNetwork: 1500},
		{System: "Xeon HPC node (2016)", Year: 2016, FlopsPerWordMemory: 200, FlopsPerWordNetwork: 5000},
		{System: "GPU node (HBM)", Year: 2019, FlopsPerWordMemory: 80, FlopsPerWordNetwork: 8000},
		{System: "Joule 2.0 (Xeon 6148)", Year: 2019, FlopsPerWordMemory: 220, FlopsPerWordNetwork: 6000},
		// CS-1: 3 bytes/flop memory => 4B word per 1.33 flops; network
		// injection 16B/cycle vs 8 flops/cycle => 2 flops per 4B word.
		{System: "Cerebras CS-1", Year: 2020, FlopsPerWordMemory: 1.33, FlopsPerWordNetwork: 2, WaferScale: true},
	}
}

// ---------------------------------------------------------- §V headline

// HeadlineMesh is the measured problem of Section V.
type HeadlineMesh struct{ X, Y, Z int }

// Headline returns the paper's measured configuration and numbers.
func Headline() (mesh HeadlineMesh, iterMicros float64, pflops float64) {
	return HeadlineMesh{X: 600, Y: 595, Z: 1536}, 28.1, 0.86
}

// HeadlinePrediction evaluates a model at the Section V configuration.
func HeadlinePrediction(m IterModel) (iterMicros, pflops, fracPeak float64) {
	w := CS1()
	mesh, _, _ := Headline()
	sec := m.IterationSeconds(w, mesh.Z)
	return sec * 1e6, m.PFLOPS(w, mesh.X, mesh.Y, mesh.Z), m.FractionOfPeak(w, mesh.X, mesh.Y, mesh.Z)
}

// ShapePoint is one entry of a mesh-shape sweep (the paper's "predict the
// effect of changing mesh size and shape").
type ShapePoint struct {
	Z          int
	IterMicros float64
	PFLOPS     float64
}

// ShapeSweep evaluates the model across Z for the full fabric.
func ShapeSweep(m IterModel, zs []int) []ShapePoint {
	w := CS1()
	out := make([]ShapePoint, 0, len(zs))
	for _, z := range zs {
		out = append(out, ShapePoint{
			Z:          z,
			IterMicros: m.IterationSeconds(w, z) * 1e6,
			PFLOPS:     m.PFLOPS(w, w.W-2, w.H, z),
		})
	}
	return out
}
