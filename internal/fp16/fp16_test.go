package fp16

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// Encodings the tests name. The datapath never needs them.
const (
	posInf  Float16 = 0x7C00
	qNaN    Float16 = 0x7E00
	negZero Float16 = 0x8000
)

// Classification, through the exact conversion to float64.
func isNaN(x Float16) bool           { return math.IsNaN(x.Float64()) }
func isInf(x Float16, sign int) bool { return math.IsInf(x.Float64(), sign) }
func isFinite(x Float16) bool        { return !isNaN(x) && !isInf(x, 0) }
func isZero(x Float16) bool          { return x.Float64() == 0 }
func signbit(x Float16) bool         { return x&negZero != 0 }

// ulp is the unit in the last place of x (the spacing of fp16 values at
// |x|): 2^-24 for zero and subnormals, NaN for infinities and NaN.
func ulp(x Float16) float64 {
	if !isFinite(x) {
		return math.NaN()
	}
	e := int(uint16(x)>>fracBits) & 0x1F
	if e == 0 {
		return SmallestSubnormal
	}
	return math.Ldexp(1, e-expBias-fracBits)
}

// oracle rounds a float64 to fp16 with round-to-nearest-even using an
// independent method (scaling + math.RoundToEven), to cross-check
// FromFloat64's bit manipulation.
func oracle(f float64) Float16 {
	if math.IsNaN(f) {
		return qNaN
	}
	sign := Zero
	if math.Signbit(f) {
		sign = negZero
		f = -f
	}
	if f == 0 {
		return sign
	}
	if math.IsInf(f, 1) {
		return posInf | sign
	}
	// Subnormal range: quantum 2^-24. f*2^24 is exact (power-of-two scale).
	if f < SmallestNormal {
		q := math.RoundToEven(f * 0x1p24)
		if q == 0 {
			return sign
		}
		if q < 1024 {
			return Float16(uint16(q)) | sign
		}
		// Rounds up into the smallest normal.
		return Float16(0x0400) | sign
	}
	// Normal range: find e with f in [2^e, 2^(e+1)).
	e := math.Ilogb(f)
	for {
		scale := math.Ldexp(1, e-10)
		m := math.RoundToEven(f / scale) // f/scale exact: scale is 2^k
		if m >= 2048 {                   // carried into next binade
			e++
			continue
		}
		if e > 15 {
			return posInf | sign
		}
		if m < 1024 { // can happen if Ilogb overshot for values just below 2^e
			e--
			continue
		}
		return Float16(uint16(e+15)<<10|uint16(m)&0x3FF) | sign
	}
}

func TestExhaustiveRoundTrip(t *testing.T) {
	// Every fp16 bit pattern must survive a trip through float32/float64.
	for b := 0; b < 1<<16; b++ {
		x := FromBits(uint16(b))
		if isNaN(x) {
			if !isNaN(FromFloat32(x.Float32())) || !isNaN(FromFloat64(x.Float64())) {
				t.Fatalf("NaN pattern %#04x did not round-trip to NaN", b)
			}
			continue
		}
		if got := FromFloat32(x.Float32()); got != x {
			t.Fatalf("bits %#04x: float32 round-trip gave %#04x", b, got.Bits())
		}
		if got := FromFloat64(x.Float64()); got != x {
			t.Fatalf("bits %#04x: float64 round-trip gave %#04x", b, got.Bits())
		}
	}
}

func TestConversionAgainstOracle(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2, 65504, 65504.00001, 65519.999,
		65520, 65536, 1e10, -1e10, 0x1p-14, 0x1p-24, 0x1.8p-24, 0x1p-25,
		0x1.0000001p-25, 0x1.ffcp15, 0x1.ffdp15, 0x1.ffep15, 3.14159265,
		2.0 / 3.0, 1e-8, -1e-8, 0x1p-24 * 1.5, 0x1p-24 * 2.5, 0x1p-24 * 3.5,
		1.0009765625, 1.00048828125, // 1+2^-10, 1+2^-11 (tie)
		1.0014648437, 6.1035e-5, 6.0976e-5,
	}
	for _, f := range cases {
		if got, want := FromFloat64(f), oracle(f); got != want {
			t.Errorf("FromFloat64(%g) = %#04x (%v), oracle %#04x (%v)",
				f, got.Bits(), got, want.Bits(), want)
		}
	}
}

func TestConversionAgainstOracleQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20000}
	// Across the full double range and concentrated near the fp16 range.
	f := func(f float64) bool {
		return FromFloat64(f) == oracle(f) || (math.IsNaN(f) && isNaN(FromFloat64(f)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	g := func(mant uint16, exp int8) bool {
		v := math.Ldexp(float64(mant)+0.5, int(exp%32)-20)
		return FromFloat64(v) == oracle(v)
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpecialValues(t *testing.T) {
	if !isInf(FromFloat64(math.Inf(1)), 1) || !isInf(FromFloat64(math.Inf(-1)), -1) {
		t.Error("infinity conversion failed")
	}
	if !isNaN(FromFloat64(math.NaN())) {
		t.Error("NaN conversion failed")
	}
	if FromFloat64(65520) != posInf {
		t.Errorf("65520 should round to +Inf, got %v", FromFloat64(65520))
	}
	if FromFloat64(65519.999) != FromFloat64(65504) {
		t.Errorf("65519.999 should round to 65504")
	}
	if got := FromFloat64(0x1p-25); got != Zero {
		t.Errorf("2^-25 ties to even zero, got %#04x", got.Bits())
	}
	if got := FromFloat64(0x1.8p-25); got != Float16(1) {
		t.Errorf("1.5*2^-25 rounds to smallest subnormal, got %#04x", got.Bits())
	}
	if !signbit(FromFloat64(math.Copysign(0, -1))) {
		t.Error("-0 lost its sign")
	}
	if Add(FromFloat64(1), FromFloat64(-1)) != Zero {
		t.Error("1 + -1 != +0")
	}
}

func TestArithmeticExactness(t *testing.T) {
	// Sums and products of fp16 values are exact in float64, so Add/Mul
	// must agree with a correctly rounded reference. Spot-check identities.
	vals := []Float16{
		FromFloat64(1), FromFloat64(0.5), FromFloat64(3), FromFloat64(-2.25),
		FromFloat64(1e-6), FromFloat64(1024), FromFloat64(0.333251953125),
		FromFloat64(65504), Float16(1), Float16(0x03FF),
	}
	for _, a := range vals {
		for _, b := range vals {
			if Add(a, b) != Add(b, a) {
				t.Fatalf("Add not commutative for %v, %v", a, b)
			}
			if Mul(a, b) != Mul(b, a) {
				t.Fatalf("Mul not commutative for %v, %v", a, b)
			}
			want := oracle(a.Float64() + b.Float64())
			if got := Add(a, b); got != want && !isNaN(want) {
				t.Fatalf("Add(%v,%v) = %v, want %v", a, b, got, want)
			}
			want = oracle(a.Float64() * b.Float64())
			if got := Mul(a, b); got != want && !isNaN(want) {
				t.Fatalf("Mul(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestArithmeticProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000}
	id := func(b uint16) bool {
		x := FromBits(b)
		if isNaN(x) {
			return true
		}
		return Add(x, Zero) == x || isZero(x) // x + 0 = x (except -0+0=+0)
	}
	if err := quick.Check(id, cfg); err != nil {
		t.Errorf("additive identity: %v", err)
	}
	mulID := func(b uint16) bool {
		x := FromBits(b)
		if isNaN(x) {
			return true
		}
		return Mul(x, One) == x
	}
	if err := quick.Check(mulID, cfg); err != nil {
		t.Errorf("multiplicative identity: %v", err)
	}
	negInv := func(b uint16) bool {
		x := FromBits(b)
		if isNaN(x) || !isFinite(x) {
			return true
		}
		return isZero(Add(x, x^negZero))
	}
	if err := quick.Check(negInv, cfg); err != nil {
		t.Errorf("x + (-x) = 0: %v", err)
	}
	halfErr := func(b1, b2 uint16) bool {
		x, y := FromBits(b1), FromBits(b2)
		if isNaN(x) || isNaN(y) || !isFinite(x) || !isFinite(y) {
			return true
		}
		exact := x.Float64() + y.Float64()
		got := Add(x, y).Float64()
		if math.IsInf(got, 0) {
			return math.Abs(exact) > MaxValue
		}
		return math.Abs(got-exact) <= ulp(Add(x, y))/2*(1+1e-12)
	}
	if err := quick.Check(halfErr, cfg); err != nil {
		t.Errorf("Add error exceeds half ULP: %v", err)
	}
}

func TestMonotonicity(t *testing.T) {
	// Conversion must be monotone: f <= g implies fp16(f) <= fp16(g).
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		fa, fb := FromFloat64(a).Float64(), FromFloat64(b).Float64()
		return fa <= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestFMA(t *testing.T) {
	// FMA must not round the product: pick a case where rounding the
	// product first gives a different answer.
	// a = 1+2^-10, b = 1+2^-10: a*b = 1 + 2^-9 + 2^-20.
	// Rounded product = 1+2^-9 (tie to even). FMA with c = -1-2^-9 gives
	// 2^-20 if unfused; rounded-product version gives 0.
	a := FromFloat64(1 + 0x1p-10)
	c := FromFloat64(-(1 + 0x1p-9))
	got := FMA(a, a, c)
	want := FromFloat64(0x1p-20)
	if got != want {
		t.Errorf("FMA(1+ε,1+ε,-(1+2ε)) = %v, want %v (product must not round)", got, want)
	}
	if r := Add(Mul(a, a), c); !isZero(r) {
		t.Errorf("sanity: rounded-product version should be zero, got %v", r)
	}
}

func TestMixedFMAC(t *testing.T) {
	// The fp16 product must enter the float32 accumulator exactly.
	x := FromFloat64(1 + 0x1p-10)
	acc := MixedFMAC(0, x, x)
	want := float32((1 + 0x1p-10) * (1 + 0x1p-10))
	if acc != want {
		t.Errorf("MixedFMAC product not exact: got %g want %g", acc, want)
	}
	// Accumulating many small terms: float32 accumulator retains terms a
	// pure fp16 accumulator would lose (the Figure 9 mechanism).
	xs := make([]Float16, 4096)
	for i := range xs {
		xs[i] = FromFloat64(1.0 / 64)
	}
	ones := make([]Float16, len(xs))
	for i := range ones {
		ones[i] = One
	}
	mixed := DotMixed(xs, ones)
	if math.Abs(float64(mixed)-64) > 1e-3 {
		t.Errorf("mixed dot of 4096 * 1/64 = %g, want 64", mixed)
	}
	// Resuming a fold from its accumulator is the same fold.
	if split := DotMixedAcc(DotMixed(xs[:1000], ones[:1000]), xs[1000:], ones[1000:]); split != mixed {
		t.Errorf("DotMixedAcc resumed at 1000 = %g, one pass %g", split, mixed)
	}
}

func TestULP(t *testing.T) {
	if ulp(One) != Epsilon {
		t.Errorf("ulp(1) = %g, want %g", ulp(One), Epsilon)
	}
	if ulp(Zero) != SmallestSubnormal {
		t.Errorf("ulp(0) = %g", ulp(Zero))
	}
	if ulp(FromFloat64(2048)) != 2.0 {
		t.Errorf("ulp(2048) = %g, want 2", ulp(FromFloat64(2048)))
	}
}

func TestStringParse(t *testing.T) {
	for _, s := range []string{"1", "0.5", "-2.25", "65504", "0.0009765625"} {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		x := FromFloat64(f)
		if x.String() != s {
			t.Errorf("String(%q) = %q", s, x.String())
		}
	}
}

func TestSliceConversions(t *testing.T) {
	src := []float64{0, 1, -2.5, 1e-6, 65504}
	h := FromFloat64Slice(src)
	back := ToFloat64Slice(h)
	for i, v := range src {
		if got, want := back[i], FromFloat64(v).Float64(); got != want {
			t.Errorf("slice round-trip [%d]: %g != %g", i, got, want)
		}
	}
}

func BenchmarkFromFloat64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = FromFloat64(3.14159 * float64(i&0xFF))
	}
}

func BenchmarkMixedDot(b *testing.B) {
	x := make([]Float16, 1536)
	for i := range x {
		x[i] = FromFloat64(float64(i%7) * 0.125)
	}
	b.SetBytes(int64(len(x) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DotMixed(x, x)
	}
}
