package cluster

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/stencil"
)

// TestExactSum32OrderInvariant is the property the multiwafer combine
// leans on: the exactly rounded sum is independent of summation order,
// including orders that make a naive float sum drift (large
// cancellations, tiny stragglers).
func TestExactSum32OrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float32, 4096)
	for i := range vals {
		// Wide dynamic range plus exact cancellation pairs.
		vals[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
		if i%7 == 0 && i > 0 {
			vals[i] = -vals[i-1]
		}
	}
	want := ExactSum32(vals)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		if got := ExactSum32(vals); got != want {
			t.Fatalf("trial %d: %.17g != %.17g", trial, got, want)
		}
	}
	// Against a widened reference on a case small enough to trust.
	small := []float32{1e20, 1, -1e20, 1, 0.5, -2.5}
	if got := ExactSum32(small); got != 0 {
		t.Errorf("ExactSum32(%v) = %g, want 0", small, got)
	}
}

// TestExactSum32NonFinite covers the degraded path: Inf/NaN propagate
// deterministically in slice order.
func TestExactSum32NonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := ExactSum32([]float32{1, inf, 2}); !math.IsInf(got, 1) {
		t.Errorf("Inf sum = %g", got)
	}
	if got := ExactSum32([]float32{1, inf, -inf}); !math.IsNaN(got) {
		t.Errorf("Inf + -Inf = %g, want NaN", got)
	}
	nan := float32(math.NaN())
	if got := ExactSum32([]float32{nan, 1}); !math.IsNaN(got) {
		t.Errorf("NaN sum = %g", got)
	}
	if got := ExactSum32(nil); got != 0 {
		t.Errorf("empty sum = %g", got)
	}
}

// TestExactAccMergeIsPartitionInvariant is what solver.Parallel leans
// on: float64 terms over the full exponent range, cut into any number
// of contiguous parts and merged, round to the same float64 as one
// accumulator over all of them; a reused accumulator starts empty; a
// non-finite term degrades every merge it reaches.
func TestExactAccMergeIsPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(1800)-900))
	}
	whole := NewExactAcc()
	for _, v := range vals {
		whole.Add(v)
	}
	want := whole.Float64()
	total, part := NewExactAcc(), NewExactAcc()
	for _, parts := range []int{1, 3, 7, 64} {
		total.Reset()
		at := 0
		for _, sz := range SplitExtent(len(vals), parts) {
			part.Reset()
			for _, v := range vals[at : at+sz] {
				part.Add(v)
			}
			total.Merge(part)
			at += sz
		}
		if got := total.Float64(); got != want {
			t.Errorf("%d parts: %.17g, one accumulator %.17g", parts, got, want)
		}
	}
	part.Reset()
	part.Add(math.Inf(1))
	total.Merge(part)
	if got := total.Float64(); !math.IsInf(got, 1) {
		t.Errorf("merge of an Inf part = %g", got)
	}
}

// bigExactAcc is the big.Float accumulator ExactAcc replaced, kept
// verbatim as the oracle its limbs are fuzzed against.
type bigExactAcc struct {
	sum, term big.Float
	naive     float64
	nonFinite bool
}

// bigExactPrec covers float64's 2098-bit fixed-point span plus the
// carry growth of up to 2^206 summands, so no Add rounds.
const bigExactPrec = 2304

func newBigExactAcc() *bigExactAcc {
	a := &bigExactAcc{}
	a.sum.SetPrec(bigExactPrec)
	a.term.SetPrec(53)
	return a
}

func (a *bigExactAcc) Add(v float64) {
	a.naive += v
	if a.nonFinite || !isFinite(v) {
		a.nonFinite = true
		return
	}
	a.term.SetFloat64(v)
	a.sum.Add(&a.sum, &a.term)
}

func (a *bigExactAcc) Merge(b *bigExactAcc) {
	a.naive += b.naive
	if a.nonFinite || b.nonFinite {
		a.nonFinite = true
		return
	}
	a.sum.Add(&a.sum, &b.sum)
}

func (a *bigExactAcc) Float64() float64 {
	if a.nonFinite {
		return a.naive
	}
	out, _ := a.sum.Float64()
	return out
}

// exactFuzzTerms decodes fuzz input into terms, 9 bytes each: a kind
// byte, then the bits of a float64 (kind%4 == 0), of a float32 (1), of
// a subnormal float64 (2), or the negation of the previous term, for
// exact cancellation (3). kind ≥ 128 forces a carry propagation after
// the term, so the fuzzer reaches limbs that carried mid-stream.
func exactFuzzTerms(data []byte) (terms []float64, carryAfter []bool) {
	for ; len(data) >= 9; data = data[9:] {
		kind, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
		var v float64
		switch kind % 4 {
		case 0:
			v = math.Float64frombits(bits)
		case 1:
			v = float64(math.Float32frombits(uint32(bits)))
		case 2:
			v = math.Float64frombits(bits & (1<<63 | 1<<52 - 1))
		case 3:
			if len(terms) > 0 {
				v = -terms[len(terms)-1]
			}
		}
		terms = append(terms, v)
		carryAfter = append(carryAfter, kind >= 128)
	}
	return terms, carryAfter
}

// FuzzExactAccMatchesBig holds the limb accumulator to the big.Float
// one it replaced, bit for bit: over float32 and float64 terms,
// subnormals, exact cancellation to zero, sums that overflow to ±Inf,
// non-finite terms, and any cut of the terms into merged parts.
func FuzzExactAccMatchesBig(f *testing.F) {
	rec := func(kind byte, v uint64) []byte {
		b := []byte{kind, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[1:], v)
		return b
	}
	cat := func(rs ...[]byte) []byte {
		var out []byte
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	f64 := func(v float64) []byte { return rec(0, math.Float64bits(v)) }
	f.Add(cat(f64(1), f64(1e-300), f64(-1)), uint64(0b10))
	f.Add(cat(f64(math.MaxFloat64), f64(math.MaxFloat64), f64(-1)), uint64(0))
	f.Add(cat(f64(-math.MaxFloat64), f64(-math.MaxFloat64/2)), uint64(1))
	f.Add(cat(f64(5e-324), rec(2, 0x000fffffffffffff), rec(3, 0), f64(-5e-324)), uint64(0b101))
	f.Add(cat(rec(1, uint64(math.Float32bits(3.5))), rec(3, 0), rec(129, 0x80000001)), uint64(0b1))
	f.Add(cat(f64(1), f64(math.Inf(1)), f64(2)), uint64(0b11))
	f.Add(cat(f64(math.Inf(-1)), f64(math.Inf(1)), f64(math.NaN())), uint64(0))
	f.Add(cat(f64(math.Copysign(0, -1)), f64(math.Copysign(0, -1))), uint64(0))
	f.Add(cat(f64(0x1p1023), rec(128, math.Float64bits(0x1p1023)), rec(3, 0), f64(0x1p-1074)), uint64(0b1010))
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		terms, carryAfter := exactFuzzTerms(data)
		whole, oracle := NewExactAcc(), newBigExactAcc()
		// Bit i of cuts ends a part after term i; parts merge in order.
		merged, mergedOracle := NewExactAcc(), newBigExactAcc()
		part, partOracle := NewExactAcc(), newBigExactAcc()
		for i, v := range terms {
			whole.Add(v)
			oracle.Add(v)
			part.Add(v)
			partOracle.Add(v)
			if carryAfter[i] {
				whole.carry()
				part.carry()
			}
			if cuts>>(i%64)&1 != 0 || i == len(terms)-1 {
				merged.Merge(part)
				mergedOracle.Merge(partOracle)
				part.Reset()
				partOracle = newBigExactAcc()
			}
		}
		want := math.Float64bits(oracle.Float64())
		if got := math.Float64bits(whole.Float64()); got != want {
			t.Fatalf("%v: one accumulator %#x (%g), big.Float %#x (%g)", terms, got, whole.Float64(), want, oracle.Float64())
		}
		want = math.Float64bits(mergedOracle.Float64())
		if got := math.Float64bits(merged.Float64()); got != want {
			t.Fatalf("%v cut %#b: merged %#x (%g), big.Float %#x (%g)", terms, cuts, got, merged.Float64(), want, mergedOracle.Float64())
		}
	})
}

// dotPartials stands in for one dot's per-tile float32 partials on the
// 102×95 fabric of the star_wide_ff benchmark workload.
func dotPartials() []float32 {
	rng := rand.New(rand.NewSource(26))
	vals := make([]float32, 102*95)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
	}
	return vals
}

// TestExactSum32Allocs pins one dot's combine, terms and final rounding,
// at zero allocations.
func TestExactSum32Allocs(t *testing.T) {
	vals := dotPartials()
	if n := testing.AllocsPerRun(20, func() { ExactSum32(vals) }); n != 0 {
		t.Errorf("ExactSum32 of %d values: %v allocations, want 0", len(vals), n)
	}
}

var exactSink float64

func BenchmarkExactSum32(b *testing.B) {
	vals := dotPartials()
	b.ReportAllocs()
	for b.Loop() {
		exactSink = ExactSum32(vals)
	}
}

// TestSplitExtent covers the 1D partition the wafer mapping reuses:
// even splits, remainder placement, single block, and the panics.
func TestSplitExtent(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		want []int
	}{
		{8, 2, []int{4, 4}},
		{7, 2, []int{4, 3}},
		{10, 3, []int{4, 3, 3}},
		{6, 6, []int{1, 1, 1, 1, 1, 1}},
		{5, 1, []int{5}},
	} {
		got := SplitExtent(tc.n, tc.p)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitExtent(%d,%d) = %v", tc.n, tc.p, got)
		}
		sum := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitExtent(%d,%d) = %v, want %v", tc.n, tc.p, got, tc.want)
			}
			sum += got[i]
		}
		if sum != tc.n {
			t.Errorf("SplitExtent(%d,%d) sums to %d", tc.n, tc.p, sum)
		}
	}
	for _, bad := range [][2]int{{5, 0}, {5, -1}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitExtent(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			SplitExtent(bad[0], bad[1])
		}()
	}
}

// TestValidateErrorBranches exercises both published-anchor checks of
// Config.Validate: a config that misses the 1,024-core anchor, one
// that hits it but misses the 16K-core anchor, and the calibrated
// config passing both.
func TestValidateErrorBranches(t *testing.T) {
	good := Joule()
	if err := good.Validate(0.15); err != nil {
		t.Fatalf("calibrated config rejected: %v", err)
	}

	// Halving memory bandwidth blows the 1,024-core anchor (memory
	// bound there).
	slowMem := Joule()
	slowMem.MemBWPerNode /= 2
	if err := slowMem.Validate(0.15); err == nil {
		t.Error("halved memory bandwidth passed validation")
	}

	// Inflating only the per-rank collective cost leaves 1,024 cores
	// within tolerance but wrecks 16K cores, hitting the second branch.
	slowColl := Joule()
	slowColl.CollPerRank *= 10
	t1024 := slowColl.IterationTime(Fig8Mesh, 1024).Total()
	if math.Abs(t1024-75e-3)/75e-3 > 0.15 {
		t.Fatalf("test premise broken: 1024-core time %v drifted out of tolerance", t1024)
	}
	if err := slowColl.Validate(0.15); err == nil {
		t.Error("10× collective jitter passed validation")
	}
}

// TestDecompose3DEdgeCases covers the degenerate decompositions the
// multiwafer mapping meets: one rank, prime rank counts on non-dividing
// meshes, and ranks exceeding a mesh dimension.
func TestDecompose3DEdgeCases(t *testing.T) {
	m := stencil.Mesh{NX: 8, NY: 8, NZ: 8}
	if px, py, pz := Decompose3D(m, 1); px != 1 || py != 1 || pz != 1 {
		t.Errorf("1 rank: %d×%d×%d", px, py, pz)
	}
	// A prime count on a non-dividing mesh still factors (7 = 7×1×1)
	// even though no axis divides evenly (the timing model only needs
	// the factors; solver.Parallel splits whole columns, evenly or not).
	px, py, pz := Decompose3D(stencil.Mesh{NX: 10, NY: 10, NZ: 10}, 7)
	if px*py*pz != 7 {
		t.Errorf("7 ranks: %d×%d×%d does not multiply to 7", px, py, pz)
	}
	// More ranks than any single axis: must spread across axes.
	px, py, pz = Decompose3D(m, 64)
	if px*py*pz != 64 || px > 8 || py > 8 || pz > 8 {
		t.Errorf("64 ranks on 8³: %d×%d×%d", px, py, pz)
	}
}
