package cluster

import (
	"math"
	"math/big"
)

// This file holds the exactly-rounded reduction every backend's
// determinism promise rests on. A dot whose partials are summed exactly
// and rounded once cannot depend on how the mesh was cut: into wafers
// (internal/multiwafer and the wafer solve loop combine per-tile float32
// partials with ExactSum32), or into goroutine-ranks (solver.Parallel
// merges one ExactAcc per rank).

// exactPrec sizes the wide accumulator: the full fixed-point span of
// float64 (2^-1074 through 2^1023) is about 2098 bits, plus headroom
// for the carry growth of up to 2^20 summands. With this precision,
// adding any finite float64 into the accumulator is exact — no rounding
// ever occurs until the final conversion back to float64, so the sum is
// independent of summation order and therefore of the decomposition.
const exactPrec = 2304

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ExactAcc is an order-independent sum of float64 terms: Add and Merge
// never round, Float64 rounds once. If any term is non-finite the exact
// sum does not exist and Float64 degrades to the float64 sum in Add and
// Merge order, which still propagates Inf/NaN deterministically for a
// fixed order (order-invariance holds only while every term is finite).
type ExactAcc struct {
	sum, term big.Float
	naive     float64
	nonFinite bool
}

// NewExactAcc returns an empty accumulator.
func NewExactAcc() *ExactAcc {
	a := &ExactAcc{}
	a.sum.SetPrec(exactPrec)
	a.term.SetPrec(53)
	return a
}

// Reset empties the accumulator for reuse.
func (a *ExactAcc) Reset() {
	a.sum.SetInt64(0)
	a.naive, a.nonFinite = 0, false
}

// Add adds one term.
func (a *ExactAcc) Add(v float64) {
	a.naive += v
	if a.nonFinite || !isFinite(v) {
		a.nonFinite = true
		return
	}
	a.term.SetFloat64(v)
	a.sum.Add(&a.sum, &a.term)
}

// Merge adds everything b holds; b is unchanged.
func (a *ExactAcc) Merge(b *ExactAcc) {
	a.naive += b.naive
	if a.nonFinite || b.nonFinite {
		a.nonFinite = true
		return
	}
	a.sum.Add(&a.sum, &b.sum)
}

// Float64 returns the sum, correctly rounded.
func (a *ExactAcc) Float64() float64 {
	if a.nonFinite {
		return a.naive
	}
	out, _ := a.sum.Float64()
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
// returns the block sizes. This is the 1D piece of the block
// decomposition Decompose3D assumes; the multiwafer backend reuses it
// to cut a mesh's X and Y extents across a wafer grid (uneven blocks
// are fine: each wafer's fabric is sized to its block), and
// solver.Parallel to cut the NX·NY columns across goroutine-ranks.
// SplitExtent panics if p < 1 or n < p (an empty wafer has no fabric).
func SplitExtent(n, p int) []int {
	if p < 1 {
		panic("cluster: SplitExtent needs at least one block")
	}
	if n < p {
		panic("cluster: SplitExtent cannot give every block at least one point")
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
