package fp16

// Slice helpers used throughout the kernels: bulk conversion between fp16
// storage and the float32/float64 staging formats, plus elementwise
// reductions with the accumulation semantics of the hardware.

// FromFloat64Slice converts src elementwise, rounding each value to fp16.
func FromFloat64Slice(src []float64) []Float16 {
	dst := make([]Float16, len(src))
	for i, v := range src {
		dst[i] = FromFloat64(v)
	}
	return dst
}

// FromFloat32Slice converts src elementwise, rounding each value to fp16.
func FromFloat32Slice(src []float32) []Float16 {
	dst := make([]Float16, len(src))
	for i, v := range src {
		dst[i] = FromFloat32(v)
	}
	return dst
}

// ToFloat64Slice converts src elementwise; the conversion is exact.
func ToFloat64Slice(src []Float16) []float64 {
	dst := make([]float64, len(src))
	for i, v := range src {
		dst[i] = v.Float64()
	}
	return dst
}

// ToFloat32Slice converts src elementwise; the conversion is exact.
func ToFloat32Slice(src []Float16) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = v.Float32()
	}
	return dst
}

// DotMixed computes the inner product of x and y with the CS-1 hardware
// semantics: exact fp16×fp16 products accumulated sequentially in float32.
func DotMixed(x, y []Float16) float32 { return DotMixedAcc(0, x, y) }

// DotMixedAcc continues a DotMixed fold from acc: the simulated
// inner-product instruction consumes its operands a few elements per
// cycle, and the sum depends on the order, so a partial fold must resume
// from the running accumulator rather than add two partial sums.
func DotMixedAcc(acc float32, x, y []Float16) float32 {
	y = y[:len(x)]
	for i := range x {
		acc = MixedFMAC(acc, x[i], y[i])
	}
	return acc
}
