package fp16

import (
	"math"
	"testing"
)

// FuzzFloat16RoundTrip fuzzes the float32 → fp16 → float32 conversion
// pair against its algebraic contract:
//
//   - fp16 → float32 is exact, so converting any fp16 value up and back
//     down must reproduce its bits;
//   - for a float32 already exactly representable in fp16, the downward
//     conversion must be the identity (no value has a nearer neighbour
//     than itself);
//   - NaN maps to NaN, infinities and zeros keep their signs, and every
//     finite input lands within half an ULP (the round-to-nearest bound)
//     or overflows to infinity only beyond the fp16 overflow threshold.
func FuzzFloat16RoundTrip(f *testing.F) {
	seeds := []uint32{
		0x00000000,            // +0
		0x80000000,            // -0
		0x3F800000,            // 1.0
		0xBF800000,            // -1.0
		0x7F800000,            // +Inf
		0xFF800000,            // -Inf
		0x7FC00000,            // NaN
		0x477FE000,            // 65504, fp16 max
		0x477FF000,            // above the overflow threshold
		0x38800000,            // 2^-14, smallest normal
		0x33800000,            // 2^-24, smallest subnormal
		0x33000000,            // 2^-25, ties to even at zero
		0x387FC000,            // largest subnormal
		math.Float32bits(0.1), // inexact in both formats
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		in := math.Float32frombits(bits)
		h := FromFloat32(in)
		out := h.Float32()

		// NaN: stays NaN in both directions.
		if math.IsNaN(float64(in)) {
			if !h.IsNaN() {
				t.Fatalf("NaN %#08x converted to non-NaN fp16 %#04x", bits, h.Bits())
			}
			if !math.IsNaN(float64(out)) {
				t.Fatalf("fp16 NaN %#04x converted to non-NaN float32 %g", h.Bits(), out)
			}
			return
		}

		// Sign is preserved exactly, including on zeros and infinities.
		if math.Signbit(float64(in)) != h.Signbit() {
			t.Fatalf("sign lost: %g (%#08x) -> %#04x", in, bits, h.Bits())
		}

		// fp16 -> float32 -> fp16 must be the identity on the fp16 side
		// (the upward conversion is exact).
		if back := FromFloat32(out); back != h {
			t.Fatalf("fp16 %#04x -> float32 %g -> fp16 %#04x is not the identity", h.Bits(), out, back.Bits())
		}

		// If the input was already exactly representable, the round trip
		// must reproduce its float32 bits exactly (covers all exact
		// normals, subnormals, zeros, infinities).
		if out == in && math.Float32bits(out) != bits {
			// Equal values with different bits can only be ±0.
			if in != 0 {
				t.Fatalf("round trip changed bits of exact value %g: %#08x -> %#08x", in, bits, math.Float32bits(out))
			}
		}

		abs := math.Abs(float64(in))
		switch {
		case h.IsInf(0):
			// Overflow is only legal at or beyond the rounding threshold
			// 65520 = (65504 + 2^16)/2; everything below rounds to a
			// finite fp16.
			if abs < 65520 {
				t.Fatalf("%g (%#08x) overflowed to %v prematurely", in, bits, h)
			}
		case h.IsZero():
			// Underflow to zero is only legal below half the smallest
			// subnormal.
			if abs > SmallestSubnormal/2 {
				t.Fatalf("%g (%#08x) underflowed to zero prematurely", in, bits)
			}
		default:
			// Finite nonzero result: round-to-nearest error bound of half
			// an ULP at the result's scale.
			if err := math.Abs(float64(out) - float64(in)); err > ULP(h)/2 {
				t.Fatalf("%g (%#08x) -> %v: error %g exceeds half ULP %g", in, bits, h, err, ULP(h)/2)
			}
		}

		// Double round trip is stable: float32 -> fp16 -> float32 ->
		// fp16 -> float32 changes nothing after the first pass.
		if again := FromFloat32(out).Float32(); math.Float32bits(again) != math.Float32bits(out) {
			t.Fatalf("round trip not idempotent: %g -> %g -> %g", in, out, again)
		}
	})
}

// FuzzArithMatchesReference fuzzes the operations the exhaustive test
// cannot enumerate — three-operand FMA, Div, Sqrt, the float32
// accumulate of MixedFMAC, and FromFloat64 over the whole float64 range
// — against the reference implementations in reference_test.go. x, y, z
// are fp16 bit patterns; f is a float64 bit pattern, whose low half also
// serves as MixedFMAC's float32 accumulator.
func FuzzArithMatchesReference(f *testing.F) {
	// FuzzFloat16RoundTrip's rounding-tie and overflow-threshold values,
	// as the float64 input and, encoded, as operands.
	for _, s := range []uint32{
		0x00000000, 0x80000000, 0x3F800000, 0x7F800000, 0x7FC00000,
		0x477FE000, // 65504, fp16 max
		0x477FF000, // 65520, the overflow threshold (a tie)
		0x38800000, // 2^-14, smallest normal
		0x33800000, // 2^-24, smallest subnormal
		0x33000000, // 2^-25, ties to even at zero
		0x387FC000, // largest subnormal
		0x387FE000, // halfway from it to the smallest normal
		math.Float32bits(0.1),
	} {
		v := math.Float32frombits(s)
		h := FromFloat32(v).Bits()
		f.Add(h, uint16(0x3C00), uint16(0x0001), math.Float64bits(float64(v)))
		f.Add(h, h, h^0x8000, math.Float64bits(float64(v))+1) // just past the tie
		f.Add(uint16(0x7BFF), uint16(0x3C01), h, math.Float64bits(float64(v))-1)
	}
	f.Fuzz(func(t *testing.T, xb, yb, zb uint16, fb uint64) {
		x, y, z := Float16(xb), Float16(yb), Float16(zb)
		if got, want := FMA(x, y, z), refFMA(x, y, z); got != want {
			t.Errorf("FMA(%#04x, %#04x, %#04x) = %#04x, reference %#04x", xb, yb, zb, got.Bits(), want.Bits())
		}
		if got, want := Div(x, y), refDiv(x, y); got != want {
			t.Errorf("Div(%#04x, %#04x) = %#04x, reference %#04x", xb, yb, got.Bits(), want.Bits())
		}
		if got, want := Sqrt(z), refSqrt(z); got != want {
			t.Errorf("Sqrt(%#04x) = %#04x, reference %#04x", zb, got.Bits(), want.Bits())
		}
		checkEncode64(t, fb)
		// A NaN accumulator meeting a NaN product leaves the payload to
		// the compiler's operand order (see checkPair); any NaN will do.
		acc := math.Float32frombits(uint32(fb))
		got, want := MixedFMAC(acc, x, y), refMixedFMAC(acc, x, y)
		if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
			t.Errorf("MixedFMAC(%#08x, %#04x, %#04x) = %#08x, reference %#08x", uint32(fb), xb, yb, math.Float32bits(got), math.Float32bits(want))
		}
	})
}
