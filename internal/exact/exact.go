// Package exact holds the exactly rounded reduction every backend's
// determinism promise rests on. A dot whose partials are summed exactly
// and rounded once cannot depend on how the mesh was cut into wafers or
// tiles: the wafer solve loop (internal/kernels), the multi-wafer
// substrate (internal/multiwafer), the compiled programs' global
// reductions (internal/stencilc) and the chunked mixed-precision host
// context (solver.NewMixedChunked) all combine their float32 partials
// with ExactSum32 or an ExactAcc. SplitExtent is the 1D block cut the
// multi-wafer mapping uses. The package imports nothing of the
// repository.
package exact

import (
	"math"
	"math/bits"
)

// The accumulator is one fixed-point integer over the full span of
// float64: every finite float64 is an integer multiple of 2^-1074, its
// least subnormal, and below 2^1024, so v·2^1074 is an integer of at
// most 2098 bits. It is held as exactLimbs signed 32-bit digits, each in
// an int64 limb: limb i weighs 2^(32i−1074). Adding a term adds its
// 53-bit significand, split into three digits, into three limbs — no
// rounding and no allocation, so the sum is independent of summation
// order and therefore of the decomposition. A limb gains less than 2^32
// in magnitude per term, so carries need propagating only every
// carryEvery terms for no limb to overflow; the two limbs above the
// span's 66 leave room for the carries of any realistic term count.
// Float64 makes the one conversion, which rounds.
const (
	exactBias  = 1074 // v·2^exactBias is an integer for every float64 v
	exactLimbs = 68   // 32-bit digits: the 2098-bit span plus carry room
	carryEvery = 1 << 30
)

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ExactAcc is an order-independent sum of float64 terms: Add never
// rounds, Float64 rounds once. If any term is non-finite the exact sum
// does not exist and Float64 degrades to the float64 sum in Add order,
// which still propagates Inf/NaN deterministically for a fixed order
// (order-invariance holds only while every term is finite).
type ExactAcc struct {
	limb      [exactLimbs]int64
	pending   int // terms added since the last carry propagation
	naive     float64
	nonFinite bool
}

// NewExactAcc returns an empty accumulator.
func NewExactAcc() *ExactAcc { return &ExactAcc{} }

// Add adds one term.
func (a *ExactAcc) Add(v float64) {
	a.naive += v
	if a.nonFinite || !isFinite(v) {
		a.nonFinite = true
		return
	}
	b := math.Float64bits(v)
	exp, mant := int(b>>52&0x7ff), b&(1<<52-1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the least normal
	} else {
		mant |= 1 << 52
	}
	// v = ±mant·2^(exp−1075), so mant sits at bit exp−1 of the integer.
	sh := uint(exp - 1)
	i, s := sh/32, sh%32
	lo, hi := mant<<s, mant>>(64-s) // s == 0: Go shifts by 64 give 0
	// Negate by the sign without a branch: signs are data, and a
	// mispredicted branch per term costs more than the rest of Add.
	neg := -int64(b >> 63) // 0 or −1
	a.limb[i] += (int64(lo&(1<<32-1)) ^ neg) - neg
	a.limb[i+1] += (int64(lo>>32) ^ neg) - neg
	a.limb[i+2] += (int64(hi) ^ neg) - neg
	if a.pending++; a.pending >= carryEvery {
		a.carry()
	}
}

// carry propagates every limb's excess into the limb above, leaving
// limbs below the top in [0, 2^32) and the signed remainder in the top
// one. The value is unchanged; the limbs now carry at most one term's
// worth each.
func (a *ExactAcc) carry() {
	carryDigits(&a.limb)
	a.pending = 1
}

func carryDigits(d *[exactLimbs]int64) {
	for i := 0; i < exactLimbs-1; i++ {
		c := d[i] >> 32 // floor division: the remainder is non-negative
		d[i] -= c << 32
		d[i+1] += c
	}
}

// Float64 returns the sum, correctly rounded (to nearest, ties to even),
// without allocating: it is called once per wafer dot.
func (a *ExactAcc) Float64() float64 {
	if a.nonFinite {
		return a.naive
	}
	d := a.limb
	carryDigits(&d)
	neg := d[exactLimbs-1] < 0
	if neg {
		for i := range d {
			d[i] = -d[i]
		}
		carryDigits(&d)
	}
	// The magnitude M = Σ d[i]·2^(32i) now has 32-bit digits, the top limb
	// alone possibly wider, so digits never overlap.
	h := exactLimbs - 1
	for h >= 0 && d[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	// lead holds M's 64 leading bits (M shifted left when it has fewer),
	// so lead's least bit weighs 2^s; sticky records a set bit below it.
	s := 32*h + bits.Len64(uint64(d[h])) - 64
	var lead uint64
	sticky := false
	for i := h; i >= 0; i-- {
		switch sh := 32*i - s; {
		case sh >= 0:
			lead |= uint64(d[i]) << sh
		case sh > -32:
			lead |= uint64(d[i]) >> -sh
			sticky = sticky || uint64(d[i])<<(64+sh) != 0
		default:
			sticky = sticky || d[i] != 0
		}
	}
	// Round the 64 bits to float64's 53: lead's top bit is set, so the
	// value is mant·2^(s+11−exactBias). When M has at most 53 bits nothing
	// is cut off and the value is representable (a subnormal when M <
	// 2^52), so Ldexp is exact and the only rounding is this one.
	mant, rest := lead>>11, lead&(1<<11-1)
	const half = 1 << 10
	if rest > half || rest == half && (sticky || mant&1 != 0) {
		mant++ // a carry to 2^53 is still exact in float64
	}
	out := math.Ldexp(float64(mant), s+11-exactBias)
	if neg {
		out = -out
	}
	return out
}

// ExactSum32 returns the correctly rounded float64 sum of values (one
// ExactAcc over them): every float32 is exactly representable in the
// accumulator, so the result is independent of summation order. With a
// non-finite summand it is the float64 sum in slice order; callers that
// need order-invariance during divergence should pass the values in a
// canonical order (multiwafer uses global mesh order).
func ExactSum32(values []float32) float64 {
	acc := NewExactAcc()
	for _, v := range values {
		acc.Add(float64(v))
	}
	return acc.Float64()
}

// SplitExtent cuts an extent of n points into p contiguous blocks as
// evenly as possible (the first n mod p blocks get one extra point) and
// returns the block sizes. The multiwafer backend cuts a mesh's X and Y
// extents across a wafer grid with it (uneven blocks are fine: each
// wafer's fabric is sized to its block). SplitExtent panics if p < 1 or n < p (an empty wafer has no fabric).
func SplitExtent(n, p int) []int {
	if p < 1 {
		panic("exact: SplitExtent needs at least one block")
	}
	if n < p {
		panic("exact: SplitExtent cannot give every block at least one point")
	}
	sizes := make([]int, p)
	base, extra := n/p, n%p
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}
