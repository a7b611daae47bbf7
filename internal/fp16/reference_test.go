package fp16

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The ref* functions are the package's previous implementations, kept
// verbatim: a float64 round trip per operation and a normalise-and-shift
// encoder. They are slow and obviously right, which is what makes them
// the oracle the float32/integer datapath in fp16.go is proven against —
// bit for bit, NaN payloads included.

func refFromFloat64(f float64) Float16 {
	b := math.Float64bits(f)
	sign := uint16(b>>48) & signMask
	exp := int((b >> 52) & 0x7FF)
	frac := b & 0x000FFFFFFFFFFFFF

	if exp == 0x7FF { // Inf or NaN
		if frac != 0 {
			// Quiet NaN; preserve the top fraction bits where possible.
			nf := uint16(frac>>42) & fracMask
			return Float16(sign | expMask | 0x0200 | nf)
		}
		return Float16(sign | expMask)
	}
	if exp == 0 && frac == 0 {
		return Float16(sign)
	}

	// Normalize into a 53-bit significand sig with value sig * 2^(e-52).
	var sig uint64
	var e int
	if exp == 0 {
		sig = frac
		e = -1022
		for sig&0x0010000000000000 == 0 {
			sig <<= 1
			e--
		}
	} else {
		sig = frac | 0x0010000000000000
		e = exp - 1023
	}

	// A normal fp16 is h * 2^(e-10) with h in [2^10, 2^11). Dropping 42 bits
	// of sig keeps 11; rounding may carry into bit 11.
	if e > expBias {
		return Float16(sign | expMask) // overflow before rounding
	}
	if e >= -14 {
		h := refRoundShiftRNE(sig, 42)
		if h >= 1<<(fracBits+1) { // carry: 2^11 -> renormalize
			h >>= 1
			e++
		}
		if e > expBias {
			return Float16(sign | expMask)
		}
		return Float16(sign | uint16(e+expBias)<<fracBits | uint16(h)&fracMask)
	}

	// Subnormal range: value = h * 2^-24 for h in [1, 2^10). We must drop
	// 42 + (-14 - e) bits. Rounding can carry into the smallest normal.
	shift := uint(42 + (-14 - e))
	if shift >= 53+1 {
		return Float16(sign) // underflows to zero even after rounding
	}
	h := refRoundShiftRNE(sig, shift)
	// h may equal 2^10 here, which encodes exactly as the smallest normal
	// (exponent field 1, fraction 0), so plain bit-OR is correct.
	return Float16(sign | uint16(h))
}

func refRoundShiftRNE(sig uint64, shift uint) uint64 {
	lsb := (sig >> shift) & 1
	bias := (uint64(1) << (shift - 1)) - 1 + lsb
	return (sig + bias) >> shift
}

func refFloat32(x Float16) float32 {
	sign := uint32(uint16(x)&signMask) << 16
	exp := uint32(x>>fracBits) & 0x1F
	frac := uint32(x) & uint32(fracMask)
	switch {
	case exp == 0x1F:
		if frac != 0 {
			return math.Float32frombits(sign | 0x7FC00000 | frac<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: value = frac * 2^-24. Normalize into a float32.
		e := int32(-14)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3FF
		return math.Float32frombits(sign | uint32(e+127)<<23 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | frac<<13)
	}
}

func refFloat64(x Float16) float64 { return float64(refFloat32(x)) }

func refFromFloat32(f float32) Float16 { return refFromFloat64(float64(f)) }

func refAdd(x, y Float16) Float16 { return refFromFloat64(refFloat64(x) + refFloat64(y)) }
func refSub(x, y Float16) Float16 { return refFromFloat64(refFloat64(x) - refFloat64(y)) }
func refMul(x, y Float16) Float16 { return refFromFloat64(refFloat64(x) * refFloat64(y)) }
func refDiv(x, y Float16) Float16 { return refFromFloat64(refFloat64(x) / refFloat64(y)) }
func refSqrt(x Float16) Float16   { return refFromFloat64(math.Sqrt(refFloat64(x))) }

func refFMA(x, y, z Float16) Float16 {
	return refFromFloat64(math.FMA(refFloat64(x), refFloat64(y), refFloat64(z)))
}

func refMixedFMAC(acc float32, x, y Float16) float32 {
	return acc + refFloat32(x)*refFloat32(y)
}

// boundaryEncodings returns the fp16 bit patterns where an encoder or a
// rounding step changes regime: signed zeros, the subnormal and normal
// extremes, infinities, quiet and signalling NaNs with assorted
// payloads, and every power of two with its neighbours one ulp either
// side — about 300 values.
func boundaryEncodings() []Float16 {
	pos := []uint16{
		0x0000,                 // 0
		0x0001, 0x0002, 0x03FF, // min subnormal, its successor, max subnormal
		0x0400, 0x0401, // min normal and successor
		0x3BFF, 0x3C00, 0x3C01, // 1 ± 1 ulp
		0x7BFE, 0x7BFF, // 65472, 65504
		0x7C00,                         // Inf
		0x7C01, 0x7C55, 0x7D00, 0x7DFF, // signalling NaNs
		0x7E00, 0x7E01, 0x7EAA, 0x7FFF, // quiet NaNs
	}
	for e := uint16(1); e <= 30; e++ { // powers of two ± 1 ulp
		pos = append(pos, e<<10-1, e<<10, e<<10+1, e<<10|0x200, e<<10|0x3FF)
	}
	for s := uint16(1); s < 0x400; s <<= 1 { // subnormal powers of two ± 1
		pos = append(pos, s-1, s, s+1)
	}
	seen := make(map[uint16]bool)
	var out []Float16
	for _, p := range pos {
		for _, h := range []uint16{p, p | signMask} {
			if !seen[h] {
				seen[h] = true
				out = append(out, Float16(h))
			}
		}
	}
	return out
}

// checkPair compares the three two-operand operations on one operand
// pair, bit for bit, NaNs included — an invalid operation's default NaN,
// one NaN operand's payload and sign carried through. Only when both
// operands are NaN is there a choice: the hardware returns its first
// source operand, and which of x and y that is was the compiler's pick in
// the reference as much as in the implementation, so either is accepted.
// It reports a mismatch on t and returns false.
func checkPair(t *testing.T, x, y Float16) bool {
	twoNaNs := x.IsNaN() && y.IsNaN()
	for _, op := range [...]struct {
		name     string
		got, ref func(x, y Float16) Float16
	}{{"Add", Add, refAdd}, {"Sub", Sub, refSub}, {"Mul", Mul, refMul}} {
		if got, want := op.got(x, y), op.ref(x, y); got != want && !(twoNaNs && got == op.ref(y, x)) {
			t.Errorf("%s(%#04x, %#04x) = %#04x, reference %#04x", op.name, x.Bits(), y.Bits(), got.Bits(), want.Bits())
			return false
		}
	}
	return true
}

// checkEncode64 compares FromFloat64 with the reference on one float64
// bit pattern.
func checkEncode64(t *testing.T, bits uint64) bool {
	f := math.Float64frombits(bits)
	if got, want := FromFloat64(f), refFromFloat64(f); got != want {
		t.Errorf("FromFloat64(%#016x) = %#04x, reference %#04x", bits, got.Bits(), want.Bits())
		return false
	}
	return true
}

// checkEncode compares both encoders on one float32 bit pattern.
func checkEncode(t *testing.T, bits uint32) bool {
	f := math.Float32frombits(bits)
	if got, want := FromFloat32(f), refFromFloat32(f); got != want {
		t.Errorf("FromFloat32(%#08x) = %#04x, reference %#04x", bits, got.Bits(), want.Bits())
		return false
	}
	return checkEncode64(t, math.Float64bits(float64(f)))
}

// TestArithMatchesReference is the short-mode leg of the exactness
// proof: every decode, every pair of boundary encodings, and a strided
// sample of operand pairs and float32 inputs. The exhaustive leg below
// covers the rest.
func TestArithMatchesReference(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		x := Float16(h)
		if got, want := math.Float32bits(x.Float32()), math.Float32bits(refFloat32(x)); got != want {
			t.Fatalf("Float32(%#04x) = %#08x, reference %#08x", h, got, want)
		}
		if got, want := math.Float64bits(x.Float64()), math.Float64bits(refFloat64(x)); got != want {
			t.Fatalf("Float64(%#04x) = %#016x, reference %#016x", h, got, want)
		}
	}
	bs := boundaryEncodings()
	for _, x := range bs {
		for _, y := range bs {
			if !checkPair(t, x, y) {
				return
			}
			for _, z := range bs {
				if got, want := FMA(x, y, z), refFMA(x, y, z); got != want {
					t.Fatalf("FMA(%#04x, %#04x, %#04x) = %#04x, reference %#04x", x.Bits(), y.Bits(), z.Bits(), got.Bits(), want.Bits())
				}
			}
		}
		// The float32 neighbourhood of every boundary value: ±64 float32
		// ulps crosses each rounding tie and regime edge.
		c := math.Float32bits(x.Float32())
		for d := uint32(0); d <= 64; d++ {
			if !checkEncode(t, c+d) || !checkEncode(t, c-d) {
				return
			}
		}
	}
	// float64 inputs beyond float32's reach: around every fp16 rounding
	// boundary (a value and the midpoint to its successor), nudged by the
	// lowest fraction bits, which only a correct sticky term can see; then
	// a million random fractions at every exponent fp16 can represent or
	// round from.
	for h := uint16(0); h < 0x7C00; h++ {
		lo := math.Float64bits(Float16(h).Float64())
		mid := math.Float64bits((Float16(h).Float64() + Float16(h+1).Float64()) / 2)
		for _, c := range []uint64{lo, mid} {
			for d := uint64(0); d <= 2; d++ {
				if !checkEncode64(t, c+d) || !checkEncode64(t, c-d) || !checkEncode64(t, c+d|1<<63) {
					return
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		if !checkEncode64(t, rng.Uint64()&^(0x7FF<<52)|uint64(1023-28+i%48)<<52) {
			return
		}
	}
	// Strided samples: 251 and 65521 are prime, so the pairs and float32
	// patterns visited share no structure with the encodings' fields.
	for p := uint64(0); p < 1<<32; p += 65521 {
		x, y := Float16(p>>16), Float16(p)
		if !checkPair(t, x, y) || !checkEncode(t, uint32(p*251)) {
			return
		}
	}
}

// exhaustive opts in to TestArithMatchesReferenceExhaustive. The test is
// not part of a plain `go test ./...`: it keeps every CPU busy for
// minutes, and go test runs packages side by side — beside it the
// paper-scale solve in internal/kernels misses its wall-time budget.
var exhaustive = flag.Bool("fp16.exhaustive", false,
	"run the exhaustive (2^32 operand pairs, 2^32 float32 inputs) fp16 reference check")

// TestArithMatchesReferenceExhaustive proves the float32/integer
// datapath equal to the float64 reference on its whole domain: all 2³²
// operand pairs for Add, Sub and Mul, and all 2³² float32 inputs for
// FromFloat32 and FromFloat64. About 2.5 minutes on two cores. Run it
// with
//
//	go test ./internal/fp16 -run Exhaustive -timeout 20m -fp16.exhaustive
//
// as CI does in its paper-scale step; CONTRIBUTING.md makes it the gate
// for any change to fp16 arithmetic. Skipped without the flag, in -short
// mode and under the race detector.
func TestArithMatchesReferenceExhaustive(t *testing.T) {
	if !*exhaustive || testing.Short() || raceEnabled {
		t.Skip("exhaustive fp16 reference check: needs -fp16.exhaustive, and neither -short nor -race")
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker w takes the high halves hi ≡ w (mod workers): x for
			// the pair check, the top 16 bits for the encode check.
			for hi := w; hi < 1<<16 && !t.Failed(); hi += workers {
				x := Float16(hi)
				for lo := 0; lo < 1<<16; lo++ {
					if !checkPair(t, x, Float16(lo)) || !checkEncode(t, uint32(hi)<<16|uint32(lo)) {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
