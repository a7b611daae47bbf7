// Package fp16 implements IEEE 754 binary16 ("half precision") arithmetic
// in software, with the rounding semantics of the CS-1 wafer-scale engine's
// floating point datapath:
//
//   - all basic operations (+, −, ×, ÷, √) round to nearest, ties to even;
//   - FMA does not round the product before the addition;
//   - the mixed-precision FMAC used by the hardware inner-product
//     instruction multiplies two fp16 operands exactly (the 22-bit product
//     fits a float32 significand) and accumulates in float32.
//
// The package is the numeric substrate for every mixed-precision experiment
// in the reproduction (Figure 9 in particular): identical rounding semantics
// give identical convergence and plateau behaviour.
//
// Every simulated element passes through here, so the datapath is built to
// be exact and cheap at once. Decoding is integer arithmetic on the bit
// pattern (Float32, small enough to inline); +, − and × are one float32
// operation and one integer-arithmetic encode (FromFloat32); FMA, ÷ and √
// go through float64 and FromFloat64, whose common case is a shift and an
// add. None of this is approximate: the float32 route rounds exactly as a
// float64 one would (see Add and Mul for the argument), and
// reference_test.go keeps the float64-everywhere implementation this
// package used to have as an oracle that the whole domain — all 2³² operand
// pairs, all 2³² float32 inputs — is compared against.
//
// Two float operations here sit next to a multiply — the subnormal
// decode's scale by 2^-24 and the subnormal encode's add of 0.5 — and a
// compiler may contract a multiply and an add into one fused instruction
// (arm64 always, amd64 at GOAMD64=v3). Neither can change a result: every
// product involved (an integer below 2^10 times a power of two; two fp16
// values) is exact, so rounding it before the add rounds nothing.
package fp16

import (
	"math"
	"strconv"
)

// Float16 is an IEEE 754 binary16 value stored in its 16-bit interchange
// format: 1 sign bit, 5 exponent bits (bias 15), 10 fraction bits.
type Float16 uint16

// Format-level constants.
const (
	signMask uint16 = 0x8000
	expMask  uint16 = 0x7C00
	fracMask uint16 = 0x03FF

	expBias  = 15
	fracBits = 10
)

// Distinguished values.
var (
	// PositiveInf and NegativeInf are the fp16 infinities.
	PositiveInf = Float16(0x7C00)
	NegativeInf = Float16(0xFC00)
	// NaN is a quiet NaN.
	NaN = Float16(0x7E00)
	// Zero and NegZero are the signed zeros.
	Zero    = Float16(0x0000)
	NegZero = Float16(0x8000)
	// One is 1.0.
	One = Float16(0x3C00)
)

// Numeric limits, as float64 values.
const (
	// MaxValue is the largest finite fp16 value, 65504.
	MaxValue = 65504.0
	// SmallestNormal is 2^-14.
	SmallestNormal = 0x1p-14
	// SmallestSubnormal is 2^-24.
	SmallestSubnormal = 0x1p-24
	// Epsilon is the machine epsilon, 2^-10: the difference between 1 and
	// the next representable value. The paper's "machine precision is about
	// 10^-3" refers to this.
	Epsilon = 0x1p-10
)

// FromBits returns the Float16 with the given interchange encoding.
func FromBits(b uint16) Float16 { return Float16(b) }

// Bits returns the interchange encoding of x.
func (x Float16) Bits() uint16 { return uint16(x) }

// FromFloat64 converts a float64 to Float16, rounding to nearest with ties
// to even, with gradual underflow to subnormals and overflow to infinity.
func FromFloat64(f float64) Float16 {
	b := math.Float64bits(f)
	sign := uint16(b>>48) & signMask
	exp := int(b>>52) & 0x7FF
	if uint(exp-(1023-14)) <= 29 {
		// 2^-14 ≤ |f| < 2^16: a normal fp16 before rounding, which nearly
		// every value in a solve is. Rebias the exponent and
		// round the low 42 fraction bits away; a carry out of the fraction
		// ripples into the exponent field, which is the renormalisation,
		// and out of exponent 30 it lands on 0x7C00, which is infinity.
		m := b&^(1<<63) - (1023-expBias)<<52
		m += 1<<41 - 1 + m>>42&1
		return Float16(sign | uint16(m>>42))
	}

	frac := b & (1<<52 - 1)
	switch {
	case exp == 0x7FF && frac != 0:
		// Quiet NaN; preserve the top fraction bits where possible.
		return Float16(sign | expMask | 0x0200 | uint16(frac>>42)&fracMask)
	case exp > 1023+expBias:
		return Float16(sign | expMask) // infinity, or overflow before rounding
	}
	// Subnormal range: value = h * 2^-24 for h in [0, 2^10], so the 53-bit
	// significand drops 42 + (-14 - e) bits. Anything below 2^-25 (float64
	// subnormals and zero included) rounds to zero.
	shift := uint(42 - 14 + 1023 - exp)
	if shift >= 53+1 {
		return Float16(sign)
	}
	// h may equal 2^10 here, which encodes exactly as the smallest normal
	// (exponent field 1, fraction 0), so plain bit-OR is correct.
	return Float16(sign | uint16(roundShiftRNE(frac|1<<52, shift)))
}

// roundShiftRNE drops the low shift bits of sig, rounding to nearest with
// ties to even. shift must be in [1, 63].
func roundShiftRNE(sig uint64, shift uint) uint64 {
	lsb := (sig >> shift) & 1
	bias := (uint64(1) << (shift - 1)) - 1 + lsb
	return (sig + bias) >> shift
}

// float32 bit patterns FromFloat32 and Float32 branch on.
const (
	f32MinNormal16 = (127 - 14) << 23 // 2^-14, the smallest normal fp16
	f32Overflow16  = (127 + 16) << 23 // 2^16, past every finite fp16
	f32Inf         = 0xFF << 23
)

// FromFloat32 converts a float32 to Float16 with round-to-nearest-even, in
// integer arithmetic on the bit pattern.
func FromFloat32(f float32) Float16 {
	u := math.Float32bits(f)
	sign := uint16(u>>16) & signMask
	u &^= 1 << 31
	switch {
	case u-f32MinNormal16 < f32Overflow16-f32MinNormal16:
		// Normal result: rebias the exponent by 15-127 and round the low 13
		// fraction bits away in one add (0xFFF plus the bit that will be
		// the result's lsb: ties go to even). As in FromFloat64, a carry
		// renormalises, and from exponent 30 it gives infinity — so 65520
		// and above overflow with no separate test.
		u += (expBias-127)<<23&(1<<32-1) + 0xFFF + u>>13&1
		return Float16(sign | uint16(u>>13))
	case u < f32MinNormal16:
		// Subnormal or zero result, h * 2^-24: adding 0.5, whose ulp is
		// 2^-24, makes the float32 adder do the rounding, to nearest even,
		// and leaves h in the low fraction bits (h = 2^10 is again the
		// smallest normal).
		return Float16(sign | uint16(math.Float32bits(math.Float32frombits(u)+0.5)-0x3F000000))
	case u > f32Inf:
		// Quiet NaN with the top fraction bits, as FromFloat64.
		return Float16(sign | expMask | 0x0200 | uint16(u>>13)&fracMask)
	}
	return Float16(sign | expMask) // infinity, or overflow before rounding
}

// Float32 returns x converted to float32. The conversion is exact. A
// normal value (both compares fall through) is a shift and an integer add
// that rebiases the exponent; a subnormal is its fraction, converted as an
// integer, times 2^-24. Nothing here calls out, which keeps the function —
// and Float64 — under the compiler's inlining budget. The branch-free
// alternative, moving the bits into place and multiplying by 2^112, is
// just as exact but feeds every fp16 subnormal to the multiplier as a
// float32 subnormal, which x86 handles in microcode: 40 ns an element
// instead of 1 on the sandbox's Xeon, on exactly the small residuals a
// converging solve produces.
func (x Float16) Float32() float32 {
	m := uint32(x &^ Float16(signMask))
	b := m<<13 + (127-expBias)<<23
	if m < 1<<fracBits {
		b = math.Float32bits(float32(int32(m)) * SmallestSubnormal)
	} else if m >= uint32(expMask) {
		b |= f32Inf
		if m > uint32(expMask) {
			b |= 1 << 22 // NaNs leave quiet
		}
	}
	return math.Float32frombits(b | uint32(x&Float16(signMask))<<16)
}

// Float64 returns x converted to float64. The conversion is exact.
func (x Float16) Float64() float64 { return float64(x.Float32()) }

// IsNaN reports whether x is a NaN.
func (x Float16) IsNaN() bool {
	return uint16(x)&expMask == expMask && uint16(x)&fracMask != 0
}

// IsInf reports whether x is an infinity: positive if sign > 0, negative if
// sign < 0, either if sign == 0.
func (x Float16) IsInf(sign int) bool {
	if uint16(x)&expMask != expMask || uint16(x)&fracMask != 0 {
		return false
	}
	neg := uint16(x)&signMask != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// IsFinite reports whether x is neither infinite nor NaN.
func (x Float16) IsFinite() bool { return uint16(x)&expMask != expMask }

// IsZero reports whether x is +0 or -0.
func (x Float16) IsZero() bool { return uint16(x)&^signMask == 0 }

// Signbit reports whether x is negative or negative zero.
func (x Float16) Signbit() bool { return uint16(x)&signMask != 0 }

// Neg returns -x.
func (x Float16) Neg() Float16 { return x ^ Float16(signMask) }

// Abs returns |x|.
func (x Float16) Abs() Float16 { return x &^ Float16(signMask) }

// Add returns x+y rounded to nearest even, computed as a float32 sum
// encoded once. The float32 sum may itself round (fp16 values span 2^-24
// to 2^16, more than 24 bits), but a float32 carries 24 = 2p+2 significand
// bits for the p = 11 of a normal fp16 result, which is exactly the width
// at which rounding twice gives the same answer as rounding once; and a
// sum below 2^-14, where the result has fewer than 11 bits, is a multiple
// of 2^-24 that needs none — it is exact in float32 and in fp16.
func Add(x, y Float16) Float16 { return FromFloat32(x.Float32() + y.Float32()) }

// Sub returns x-y rounded to nearest even (see Add).
func Sub(x, y Float16) Float16 { return FromFloat32(x.Float32() - y.Float32()) }

// Mul returns x*y rounded to nearest even. The product of two 11-bit
// significands has 22 bits and an exponent between -48 and 32, so it is
// exact in float32 and the encode is the only rounding.
func Mul(x, y Float16) Float16 { return FromFloat32(x.Float32() * y.Float32()) }

// Div returns x/y. The float64 quotient carries 53 bits, more than the
// 2p+2 = 24 bits required for double rounding to be innocuous for an
// 11-bit target, so the result is correctly rounded.
func Div(x, y Float16) Float16 { return FromFloat64(x.Float64() / y.Float64()) }

// Sqrt returns √x, correctly rounded (same 2p+2 argument as Div).
func Sqrt(x Float16) Float16 { return FromFloat64(math.Sqrt(x.Float64())) }

// FMA returns x*y + z with no rounding of the intermediate product, as the
// CS-1 fused multiply-accumulate does. math.FMA rounds once to float64
// (53 bits ≥ 2p+2), then we round once to fp16; the double rounding is
// innocuous at this precision gap.
func FMA(x, y, z Float16) Float16 {
	return FromFloat64(math.FMA(x.Float64(), y.Float64(), z.Float64()))
}

// MixedFMAC implements the hardware mixed-precision multiply-accumulate:
// the fp16 product x*y is computed exactly (22 bits fit a float32
// significand) and added to the float32 accumulator acc, rounding once in
// float32. This is the primitive behind the CS-1 inner-product instruction.
func MixedFMAC(acc float32, x, y Float16) float32 {
	return acc + x.Float32()*y.Float32()
}

// Less reports whether x < y under IEEE ordering (NaN compares false).
func Less(x, y Float16) bool { return x.Float32() < y.Float32() }

// Min returns the smaller of x and y; if either is NaN it returns NaN.
func Min(x, y Float16) Float16 {
	if x.IsNaN() || y.IsNaN() {
		return NaN
	}
	if Less(y, x) {
		return y
	}
	return x
}

// Max returns the larger of x and y; if either is NaN it returns NaN.
func Max(x, y Float16) Float16 {
	if x.IsNaN() || y.IsNaN() {
		return NaN
	}
	if Less(x, y) {
		return y
	}
	return x
}

// NextUp returns the least Float16 greater than x.
func NextUp(x Float16) Float16 {
	switch {
	case x.IsNaN() || x == PositiveInf:
		return x
	case x.IsZero():
		return Float16(1) // smallest positive subnormal
	case x.Signbit():
		return Float16(uint16(x) - 1)
	default:
		return Float16(uint16(x) + 1)
	}
}

// NextDown returns the greatest Float16 less than x.
func NextDown(x Float16) Float16 { return NextUp(x.Neg()).Neg() }

// ULP returns the unit in the last place of x (the spacing of fp16 values
// at |x|), as a float64. For zero and subnormals it returns 2^-24; for
// infinities and NaN it returns NaN.
func ULP(x Float16) float64 {
	if !x.IsFinite() {
		return math.NaN()
	}
	e := int(uint16(x)>>fracBits) & 0x1F
	if e == 0 {
		return SmallestSubnormal
	}
	return math.Ldexp(1, e-expBias-fracBits)
}

// String formats x using the shortest decimal representation that
// round-trips through float32.
func (x Float16) String() string {
	return strconv.FormatFloat(float64(x.Float32()), 'g', -1, 32)
}

// Parse parses a decimal string into a Float16, rounding to nearest even.
func Parse(s string) (Float16, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Zero, err
	}
	return FromFloat64(f), nil
}
