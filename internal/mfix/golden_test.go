package mfix

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// The goldens below were recorded from the two hand-kept SIMPLE copies
// (the 3D Cavity and the 2D Cavity2D) before they became one cavity
// over D ∈ {2, 3}. Every SIMPLE residual, every pressure solve's
// history and the final fields must hold to the bit.

// residualBits is one sweep's Residuals as float64 bits: mass, momentum.
type residualBits [2]uint64

func sweepBits(rs []Residuals) []residualBits {
	out := make([]residualBits, len(rs))
	for i, r := range rs {
		out[i] = residualBits{math.Float64bits(r.Mass), math.Float64bits(r.Momentum)}
	}
	return out
}

// bitsHash is FNV-1a over the float64 bits of every value, in order.
func bitsHash(slices ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range slices {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// fieldHash digests a cavity's final state: face velocities, the
// pressure-correction coefficients and the pressure.
func fieldHash(vel, d [][]float64, p []float64) uint64 {
	all := append(append(append([][]float64{}, vel...), d...), p)
	return bitsHash(all...)
}

func checkSweeps(t *testing.T, name string, got []Residuals, want []residualBits) {
	t.Helper()
	gb := sweepBits(got)
	if len(gb) != len(want) {
		t.Fatalf("%s: %d sweeps, want %d", name, len(gb), len(want))
	}
	for i := range want {
		if gb[i] != want[i] {
			t.Errorf("%s sweep %d: residual bits %#x, want %#x", name, i, gb[i], want[i])
		}
	}
}

// TestCavityHostGolden pins twelve host-backend SIMPLE sweeps of the 8³
// and the 8² cavity at Re = 100.
func TestCavityHostGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func() ([]Residuals, uint64, error)
		sweeps []residualBits
		fields uint64
	}{
		{"3D", func() ([]Residuals, uint64, error) {
			c := NewCavity(8, 100)
			res, err := c.Run(12)
			return res, fieldHash(c.vel[:], c.d[:], c.p), err
		}, []residualBits{
			{0x3f732ded232d2c2e, 0x3ff0000000000000}, {0x3f64fa4ba73541f7, 0x3fd47cf5ade3cc05},
			{0x3f5da2341f3cee7c, 0x3fc36173eb8c7516}, {0x3f55ad0af4e1bc18, 0x3fb6b858ddc247f8},
			{0x3f4f87256db62907, 0x3fad6864e66ec17a}, {0x3f46b51d14a94cd5, 0x3fa4041965351cd5},
			{0x3f402f9a927360e7, 0x3f9c12eeb603c5ad}, {0x3f36ea5be117ec59, 0x3f94111bdeed103c},
			{0x3f302004f651de35, 0x3f8d0b18c8823690}, {0x3f26ab185aa21370, 0x3f852eedac1fbb20},
			{0x3f1fbf0f5c0a8031, 0x3f7ef66bdb3540ce}, {0x3f162b4fd58bc9d2, 0x3f76b63d9cca149b},
		}, 0x188aec53929c1d5a},
		{"2D", func() ([]Residuals, uint64, error) {
			c := NewCavity2D(8, 100)
			res, err := c.Run(12)
			return res, fieldHash(c.vel[:], c.d[:], c.p), err
		}, []residualBits{
			{0x3fa64582a0cec6cc, 0x3ff0000000000000}, {0x3f9ab0423b81b81c, 0x3fd304b3a994e0ee},
			{0x3f932d6081458baf, 0x3fc152b222e22d8d}, {0x3f8bfda46705ddbe, 0x3fb4991856f17c14},
			{0x3f84544d84b609e4, 0x3fab0f55ae7a5348}, {0x3f7d69f97ba67314, 0x3fa2cef07d44f718},
			{0x3f753e5c18e039d0, 0x3f9a5a02b9fd5eac}, {0x3f6eaaddcf5c3790, 0x3f92a32ba022b3a2},
			{0x3f661f06b7ceced0, 0x3f8a9985aae11dd9}, {0x3f5fe87a5ef08d80, 0x3f8316b41b724279},
			{0x3f5704acc7baa360, 0x3f7b7e8e793b833c}, {0x3f509d024312f240, 0x3f73ced98d0845fa},
		}, 0xc90bb8e632a15645},
	} {
		res, fields, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		checkSweeps(t, tc.name, res, tc.sweeps)
		if fields != tc.fields {
			t.Errorf("%s: field hash %#x, want %#x", tc.name, fields, tc.fields)
		}
	}
}

// historyRecorder keeps every residual history its backend returns.
type historyRecorder struct {
	solver.Backend
	hist [][]float64
}

func (r *historyRecorder) Solve(a stencil.Operator, b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	opts.RecordHistory = true
	x, st, err := r.Backend.Solve(a, b, x0, opts)
	r.hist = append(r.hist, st.History)
	return x, st, err
}

// TestCavity2DWaferGolden pins four sweeps of the 8² cavity with its
// pressure solve on a 4×4 wafer in 2×2 blocks: residuals, each pressure
// solve's history, the machine fingerprint and the simulated cycle
// total. Its machine is built on EngineAuto, so a plain run holds
// fast-forward to the pins and -wse.engine=seq holds the sequential
// engine to the same ones.
func TestCavity2DWaferGolden(t *testing.T) {
	mach := wse.New(wse.CS1(4, 4))
	defer mach.Close()
	be := kernels.NewWafer2DBackend(mach, 2)
	rec := &historyRecorder{Backend: be}
	c := NewCavity2D(8, 100)
	c.Pressure = rec
	res, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	checkSweeps(t, "2D wafer", res, []residualBits{
		{0x3fa64582a0cec6cc, 0x3ff0000000000000}, {0x3f9b1f70d127056a, 0x3fd3a8a90e5516aa},
		{0x3f932694f103824e, 0x3fd030236a8ba79f}, {0x3f95522430ef1e20, 0x3fc98653e88e6f8d},
	})
	wantHist := []uint64{0xdbe7f58f50d6f09f, 0x243387184c4265a0, 0xf35a5e5df1e50d6, 0x9dab6ff709c3acfd}
	if len(rec.hist) != len(wantHist) {
		t.Fatalf("%d pressure solves, want %d", len(rec.hist), len(wantHist))
	}
	for s, h := range rec.hist {
		if len(h) != c.PressureIters {
			t.Errorf("solve %d: %d history entries, want %d", s, len(h), c.PressureIters)
		}
		if got := bitsHash(h); got != wantHist[s] {
			t.Errorf("solve %d: history hash %#x, want %#x", s, got, wantHist[s])
		}
	}
	// The fingerprint includes the routers' rotation counters, which each
	// pressure solve's reload restarts (fabric.RestartArbitration).
	const wantFP, wantCycles = 0xc43237b74b6f8bc3, 8320
	if fp := mach.Fingerprint(); fp != wantFP {
		t.Errorf("fingerprint %#x, want %#x", fp, uint64(wantFP))
	}
	if cyc := be.Cycles.Total(); cyc != wantCycles {
		t.Errorf("cycles %d, want %d", cyc, wantCycles)
	}
}
