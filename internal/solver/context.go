// Package solver implements the paper's Krylov subspace method,
// BiCGStab (Algorithm 1), over pluggable arithmetic contexts. Three
// contexts reproduce the precision study of Figure 9:
//
//   - F64: double precision (the Joule cluster baseline arithmetic);
//   - F32: IEEE single precision ("Single precision" in Figure 9);
//   - Mixed: fp16 storage and vector arithmetic with float32 dot-product
//     accumulation, the CS-1 configuration ("Mixed sp/hp").
//
// One variant, NewMixedChunked, makes the mixed context's dots the
// wafer's: per-tile float32 partials combined by the exactly rounded
// sum, so the host solve is bit-identical to the wafer backends.
//
// Every vector operation is attributed to a kernel kind (matvec, dot,
// axpy), which regenerates Table I's operations-per-meshpoint accounting.
package solver

import (
	"fmt"
	"math"

	"repro/internal/exact"
	"repro/internal/fp16"
	"repro/internal/stencil"
)

// Kind labels which BiCGStab kernel an operation belongs to, for the
// Table I accounting.
type Kind int

// Kernel kinds.
const (
	KindOther Kind = iota
	KindMatvec
	KindDot
	KindAxpy
	numKinds
)

// String returns the Table I row name.
func (k Kind) String() string {
	switch k {
	case KindMatvec:
		return "Matvec"
	case KindDot:
		return "Dot"
	case KindAxpy:
		return "AXPY"
	default:
		return "Other"
	}
}

// OpCounts tallies floating point operations by precision class: HP is
// 16-bit, SP is the context's wide class (32- or 64-bit).
type OpCounts struct {
	HPAdd, HPMul, SPAdd, SPMul int64
}

// Add accumulates o2 into o.
func (o *OpCounts) Add(o2 OpCounts) {
	o.HPAdd += o2.HPAdd
	o.HPMul += o2.HPMul
	o.SPAdd += o2.SPAdd
	o.SPMul += o2.SPMul
}

// Total returns the total operation count.
func (o OpCounts) Total() int64 { return o.HPAdd + o.HPMul + o.SPAdd + o.SPMul }

// Counters attributes operation counts to kernel kinds.
type Counters struct {
	kind   Kind
	ByKind [numKinds]OpCounts
}

// SetKind selects the kernel kind subsequent operations are attributed to.
func (c *Counters) SetKind(k Kind) { c.kind = k }

// Totals sums counts across kinds.
func (c *Counters) Totals() OpCounts {
	var t OpCounts
	for _, o := range c.ByKind {
		t.Add(o)
	}
	return t
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// Vector is a solution-length vector in some storage precision.
type Vector interface {
	Len() int
	// At and Set move values through float64 (rounding on Set).
	At(i int) float64
	Set(i int, v float64)
	// CopyFrom copies src (same concrete type) into the receiver.
	CopyFrom(src Vector)
	// AXPY computes y += a·x with one rounding per element.
	AXPY(a float64, x Vector)
	// SetAXPY computes y_dst = a·x + z elementwise.
	SetAXPY(a float64, x, z Vector)
	// XPAY computes y = x + a·y with one rounding per element.
	XPAY(a float64, x Vector)
	// Dot returns <y, x> with the context's accumulation semantics.
	Dot(x Vector) float64
	// Float64 materializes the vector in float64 (diagnostics only).
	Float64() []float64
}

// Operator applies a unit-diagonal stencil in context precision. The
// solvers only ever apply it — mesh geometry stays with the caller — so
// every stencil shape fits behind it (F64.OperatorOf).
type Operator interface {
	Apply(dst, src Vector)
}

// Context bundles a storage precision with its operation accounting.
type Context interface {
	Name() string
	NewVector(n int) Vector
	// NewOperator converts a unit-diagonal operator into this precision.
	NewOperator(o *stencil.Op7) Operator
	Counters() *Counters
}

// ---------------------------------------------------------------- float64

// F64 is the double-precision context.
type F64 struct{ c Counters }

// NewF64 returns a double-precision context.
func NewF64() *F64 { return &F64{} }

// Name implements Context.
func (f *F64) Name() string { return "fp64" }

// Counters implements Context.
func (f *F64) Counters() *Counters { return &f.c }

// NewVector implements Context.
func (f *F64) NewVector(n int) Vector { return &f64Vec{d: make([]float64, n), ctx: f} }

// NewOperator implements Context.
func (f *F64) NewOperator(o *stencil.Op7) Operator { return f.OperatorOf(o) }

// OperatorOf adapts a unit-diagonal operator of any shape to this
// context: float64 needs no image of the coefficients, only the
// operator's own Apply.
func (f *F64) OperatorOf(a stencil.Operator) Operator {
	requireUnitDiagonal(a)
	return &f64Op{op: a, ctx: f}
}

type f64Vec struct {
	d   []float64
	ctx *F64
}

func (v *f64Vec) Len() int             { return len(v.d) }
func (v *f64Vec) At(i int) float64     { return v.d[i] }
func (v *f64Vec) Set(i int, x float64) { v.d[i] = x }
func (v *f64Vec) Float64() []float64 {
	out := make([]float64, len(v.d))
	copy(out, v.d)
	return out
}
func (v *f64Vec) CopyFrom(src Vector) { copy(v.d, src.(*f64Vec).d) }

func (v *f64Vec) AXPY(a float64, x Vector) {
	xd := x.(*f64Vec).d
	for i := range v.d {
		v.d[i] += a * xd[i]
	}
	v.count(len(v.d))
}

func (v *f64Vec) SetAXPY(a float64, x, z Vector) {
	xd, zd := x.(*f64Vec).d, z.(*f64Vec).d
	for i := range v.d {
		v.d[i] = a*xd[i] + zd[i]
	}
	v.count(len(v.d))
}

func (v *f64Vec) XPAY(a float64, x Vector) {
	xd := x.(*f64Vec).d
	for i := range v.d {
		v.d[i] = xd[i] + a*v.d[i]
	}
	v.count(len(v.d))
}

func (v *f64Vec) Dot(x Vector) float64 {
	v.count(len(v.d))
	xd := x.(*f64Vec).d
	var s float64
	for i := range v.d {
		s += v.d[i] * xd[i]
	}
	return s
}

func (v *f64Vec) count(n int) {
	c := &v.ctx.c.ByKind[v.ctx.c.kind]
	c.SPMul += int64(n)
	c.SPAdd += int64(n)
}

type f64Op struct {
	op  stencil.Operator
	ctx *F64
}

// Apply books the padded-kernel cost of the SpMV: one multiply-add per
// off-diagonal point of every meshpoint (the unit diagonal costs no
// multiply).
func (o *f64Op) Apply(dst, src Vector) {
	o.op.Apply(dst.(*f64Vec).d, src.(*f64Vec).d)
	ops := int64(o.op.OffDiagonals()) * int64(o.op.N())
	c := &o.ctx.c.ByKind[KindMatvec]
	c.SPMul += ops
	c.SPAdd += ops
}

// countMatvec books the padded-kernel cost of one unit-diagonal 7-point
// SpMV: 6 multiplies and 6 adds per meshpoint (the wafer kernel pads with
// zeros rather than branching, so boundary points cost the same).
func countMatvec(c *Counters, n int, half bool) {
	k := &c.ByKind[KindMatvec]
	if half {
		k.HPMul += 6 * int64(n)
		k.HPAdd += 6 * int64(n)
	} else {
		k.SPMul += 6 * int64(n)
		k.SPAdd += 6 * int64(n)
	}
}

func requireUnitDiagonal(o stencil.Operator) {
	if !o.IsUnitDiagonal() {
		panic("solver: operator must be diagonally preconditioned (unit diagonal); call Normalize first")
	}
}

// ---------------------------------------------------------------- float32

// F32 is the single-precision context ("Single precision" in Figure 9).
type F32 struct{ c Counters }

// NewF32 returns a single-precision context.
func NewF32() *F32 { return &F32{} }

// Name implements Context.
func (f *F32) Name() string { return "fp32" }

// Counters implements Context.
func (f *F32) Counters() *Counters { return &f.c }

// NewVector implements Context.
func (f *F32) NewVector(n int) Vector { return &f32Vec{d: make([]float32, n), ctx: f} }

// NewOperator implements Context.
func (f *F32) NewOperator(o *stencil.Op7) Operator {
	requireUnitDiagonal(o)
	n := o.M.N()
	p := &f32Op{m: o.M, ctx: f}
	p.xp, p.xm = f32s(o.XP, n), f32s(o.XM, n)
	p.yp, p.ym = f32s(o.YP, n), f32s(o.YM, n)
	p.zp, p.zm = f32s(o.ZP, n), f32s(o.ZM, n)
	return p
}

func f32s(src []float64, n int) []float32 {
	out := make([]float32, n)
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

type f32Vec struct {
	d   []float32
	ctx *F32
}

func (v *f32Vec) Len() int             { return len(v.d) }
func (v *f32Vec) At(i int) float64     { return float64(v.d[i]) }
func (v *f32Vec) Set(i int, x float64) { v.d[i] = float32(x) }
func (v *f32Vec) Float64() []float64 {
	out := make([]float64, len(v.d))
	for i, x := range v.d {
		out[i] = float64(x)
	}
	return out
}
func (v *f32Vec) CopyFrom(src Vector) { copy(v.d, src.(*f32Vec).d) }

func (v *f32Vec) AXPY(a float64, x Vector) {
	xd := x.(*f32Vec).d
	af := float32(a)
	for i := range v.d {
		v.d[i] += af * xd[i]
	}
	v.count(len(v.d))
}

func (v *f32Vec) SetAXPY(a float64, x, z Vector) {
	xd, zd := x.(*f32Vec).d, z.(*f32Vec).d
	af := float32(a)
	for i := range v.d {
		v.d[i] = af*xd[i] + zd[i]
	}
	v.count(len(v.d))
}

func (v *f32Vec) XPAY(a float64, x Vector) {
	xd := x.(*f32Vec).d
	af := float32(a)
	for i := range v.d {
		v.d[i] = xd[i] + af*v.d[i]
	}
	v.count(len(v.d))
}

func (v *f32Vec) Dot(x Vector) float64 {
	xd := x.(*f32Vec).d
	var s float32
	for i := range v.d {
		s += v.d[i] * xd[i]
	}
	n := int64(len(v.d))
	c := &v.ctx.c.ByKind[v.ctx.c.kind]
	c.SPMul += n
	c.SPAdd += n
	return float64(s)
}

func (v *f32Vec) count(n int) {
	c := &v.ctx.c.ByKind[v.ctx.c.kind]
	c.SPMul += int64(n)
	c.SPAdd += int64(n)
}

type f32Op struct {
	m                      stencil.Mesh
	xp, xm, yp, ym, zp, zm []float32
	ctx                    *F32
}

func (o *f32Op) Apply(dst, src Vector) {
	d, s := dst.(*f32Vec).d, src.(*f32Vec).d
	m := o.m
	nz := m.NZ
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			base := (y*m.NX + x) * nz
			for z := 0; z < nz; z++ {
				i := base + z
				acc := s[i] // unit diagonal
				if x+1 < m.NX {
					acc += o.xp[i] * s[i+nz]
				}
				if x > 0 {
					acc += o.xm[i] * s[i-nz]
				}
				if y+1 < m.NY {
					acc += o.yp[i] * s[i+m.NX*nz]
				}
				if y > 0 {
					acc += o.ym[i] * s[i-m.NX*nz]
				}
				if z+1 < nz {
					acc += o.zp[i] * s[i+1]
				}
				if z > 0 {
					acc += o.zm[i] * s[i-1]
				}
				d[i] = acc
			}
		}
	}
	countMatvec(&o.ctx.c, m.N(), false)
}

// ------------------------------------------------------------- mixed 16/32

// Mixed is the CS-1 arithmetic: fp16 storage, fp16 vector arithmetic
// (SIMD-4 FMAC semantics for AXPY), and the hardware inner-product
// instruction's fp16-multiply/fp32-accumulate for dots. The four
// AllReduce additions per iteration run at 32 bits, as in the paper.
type Mixed struct {
	c Counters
	// chunk > 0 splits every dot into per-chunk float32 partials combined
	// by the exactly rounded sum (NewMixedChunked).
	chunk int
}

// NewMixed returns the mixed-precision context.
func NewMixed() *Mixed { return &Mixed{} }

// NewMixedChunked returns the mixed-precision context with chunked
// dots: each chunk of chunk elements accumulates in float32 with the
// mixed FMAC — exactly one wafer tile's local dot when chunk is the
// per-tile vector length — and the chunk partials are summed exactly
// and rounded once (exact.ExactAcc, the sum exact.ExactSum32 computes).
// With chunk equal to the wafer mapping's per-tile length (NZ for the
// 3D mapping), this context's BiCGStab produces residual histories
// bit-identical to the single-wafer (halo) and multi-wafer backends.
func NewMixedChunked(chunk int) *Mixed {
	if chunk <= 0 {
		panic("solver: NewMixedChunked needs chunk > 0")
	}
	return &Mixed{chunk: chunk}
}

// Name implements Context.
func (f *Mixed) Name() string {
	if f.chunk > 0 {
		return fmt.Sprintf("mixed16/32/exact%d", f.chunk)
	}
	return "mixed16/32"
}

// Counters implements Context.
func (f *Mixed) Counters() *Counters { return &f.c }

// NewVector implements Context.
func (f *Mixed) NewVector(n int) Vector {
	return &mixedVec{d: make([]fp16.Float16, n), ctx: f}
}

// NewOperator implements Context.
func (f *Mixed) NewOperator(o *stencil.Op7) Operator {
	return &mixedOp{h: stencil.NewOp7Half(o), ctx: f}
}

type mixedVec struct {
	d   []fp16.Float16
	ctx *Mixed
}

func (v *mixedVec) Len() int             { return len(v.d) }
func (v *mixedVec) At(i int) float64     { return v.d[i].Float64() }
func (v *mixedVec) Set(i int, x float64) { v.d[i] = fp16.FromFloat64(x) }
func (v *mixedVec) Float64() []float64   { return fp16.ToFloat64Slice(v.d) }
func (v *mixedVec) CopyFrom(src Vector)  { copy(v.d, src.(*mixedVec).d) }

func (v *mixedVec) AXPY(a float64, x Vector) {
	xd := x.(*mixedVec).d
	ah := fp16.FromFloat64(a)
	for i := range v.d {
		v.d[i] = fp16.FMA(ah, xd[i], v.d[i])
	}
	v.count(len(v.d))
}

func (v *mixedVec) SetAXPY(a float64, x, z Vector) {
	xd, zd := x.(*mixedVec).d, z.(*mixedVec).d
	ah := fp16.FromFloat64(a)
	for i := range v.d {
		v.d[i] = fp16.FMA(ah, xd[i], zd[i])
	}
	v.count(len(v.d))
}

func (v *mixedVec) XPAY(a float64, x Vector) {
	xd := x.(*mixedVec).d
	ah := fp16.FromFloat64(a)
	for i := range v.d {
		v.d[i] = fp16.FMA(ah, v.d[i], xd[i])
	}
	v.count(len(v.d))
}

// Dot uses the mixed FMAC: exact fp16 products, float32 accumulation.
// With a chunked context (NewMixedChunked), accumulation restarts every
// chunk elements and the float32 partials are combined exactly — the
// wafer backends' per-tile-dot + exact-combine semantics.
func (v *mixedVec) Dot(x Vector) float64 {
	n := int64(len(v.d))
	c := &v.ctx.c.ByKind[v.ctx.c.kind]
	c.HPMul += n // 16-bit multiplies
	c.SPAdd += n // 32-bit accumulation
	xd := x.(*mixedVec).d
	if ch := v.ctx.chunk; ch > 0 {
		acc := exact.NewExactAcc()
		for base := 0; base < len(v.d); base += ch {
			var part float32
			for i := base; i < min(base+ch, len(v.d)); i++ {
				part = fp16.MixedFMAC(part, v.d[i], xd[i])
			}
			acc.Add(float64(part))
		}
		return acc.Float64()
	}
	var acc float32
	for i := range v.d {
		acc = fp16.MixedFMAC(acc, v.d[i], xd[i])
	}
	return float64(acc)
}

func (v *mixedVec) count(n int) {
	c := &v.ctx.c.ByKind[v.ctx.c.kind]
	c.HPMul += int64(n)
	c.HPAdd += int64(n)
}

type mixedOp struct {
	h   *stencil.Op7Half
	ctx *Mixed
}

func (o *mixedOp) Apply(dst, src Vector) {
	o.h.Apply(dst.(*mixedVec).d, src.(*mixedVec).d)
	countMatvec(&o.ctx.c, o.h.M.N(), true)
}

// Norm2 returns the Euclidean norm of a context vector, computed in
// float64 for diagnostics — the residual norm of every solve history.
func Norm2(v Vector) float64 {
	var s float64
	for i := 0; i < v.Len(); i++ {
		x := v.At(i)
		s += x * x
	}
	return math.Sqrt(s)
}
