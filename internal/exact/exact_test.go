package exact

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
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
// non-finite terms, and carries propagated mid-stream.
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
	f.Add(cat(f64(1), f64(1e-300), f64(-1)))
	f.Add(cat(f64(math.MaxFloat64), f64(math.MaxFloat64), f64(-1)))
	f.Add(cat(f64(-math.MaxFloat64), f64(-math.MaxFloat64/2)))
	f.Add(cat(f64(5e-324), rec(2, 0x000fffffffffffff), rec(3, 0), f64(-5e-324)))
	f.Add(cat(rec(1, uint64(math.Float32bits(3.5))), rec(3, 0), rec(129, 0x80000001)))
	f.Add(cat(f64(1), f64(math.Inf(1)), f64(2)))
	f.Add(cat(f64(math.Inf(-1)), f64(math.Inf(1)), f64(math.NaN())))
	f.Add(cat(f64(math.Copysign(0, -1)), f64(math.Copysign(0, -1))))
	f.Add(cat(f64(0x1p1023), rec(128, math.Float64bits(0x1p1023)), rec(3, 0), f64(0x1p-1074)))
	f.Fuzz(func(t *testing.T, data []byte) {
		terms, carryAfter := exactFuzzTerms(data)
		acc, oracle := NewExactAcc(), newBigExactAcc()
		for i, v := range terms {
			acc.Add(v)
			oracle.Add(v)
			if carryAfter[i] {
				acc.carry()
			}
		}
		want := math.Float64bits(oracle.Float64())
		if got := math.Float64bits(acc.Float64()); got != want {
			t.Fatalf("%v: limbs %#x (%g), big.Float %#x (%g)", terms, got, acc.Float64(), want, oracle.Float64())
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
