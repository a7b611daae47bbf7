package stencil

import "repro/internal/fp16"

// Op7Half is the fp16 image of a unit-diagonal 7-point operator: the six
// off-diagonal coefficient vectors rounded to fp16, exactly what a wafer
// tile stores ("we only store six other diagonals"). Its Apply is the
// sequential reference for the wafer SpMV kernel: fp16 multiplies and fp16
// adds in a fixed order.
type Op7Half struct {
	M                      Mesh
	XP, XM, YP, YM, ZP, ZM []fp16.Float16
}

// NewOp7Half rounds a unit-diagonal operator to fp16 storage. It panics if
// the operator has not been normalized: the wafer kernels assume the main
// diagonal is all ones and perform no multiply for it.
func NewOp7Half(o *Op7) *Op7Half {
	if !o.IsUnitDiagonal() {
		panic("stencil: Op7Half requires a diagonally preconditioned (unit-diagonal) operator")
	}
	return &Op7Half{
		M:  o.M,
		XP: fp16.FromFloat64Slice(o.XP), XM: fp16.FromFloat64Slice(o.XM),
		YP: fp16.FromFloat64Slice(o.YP), YM: fp16.FromFloat64Slice(o.YM),
		ZP: fp16.FromFloat64Slice(o.ZP), ZM: fp16.FromFloat64Slice(o.ZM),
	}
}

// Apply computes dst = A·src with fp16 arithmetic: each of the six
// neighbour terms is an fp16 product accumulated with fp16 adds, then the
// unit-diagonal contribution is added — seven terms per point, matching
// Table I's 12 HP ops per meshpoint per matvec plus the unmultiplied
// diagonal. The accumulation order is fixed (zm, zp, xp, xm, yp, ym, c);
// the wafer's order is nondeterministic, so cross-checks use error bounds,
// not bit equality.
func (o *Op7Half) Apply(dst, src []fp16.Float16) { o.ApplyColumns(dst, src, 0, o.M.NX*o.M.NY) }

// ApplyColumns is Apply restricted to the Z-columns [c0, c1) in mesh
// order, as Op7.ApplyColumns.
func (o *Op7Half) ApplyColumns(dst, src []fp16.Float16, c0, c1 int) {
	m := o.M
	nz := m.NZ
	for c := c0; c < c1; c++ {
		x, y := c%m.NX, c/m.NX
		base := c * nz
		for z := 0; z < nz; z++ {
			i := base + z
			s := fp16.Zero
			if z > 0 {
				s = fp16.Mul(o.ZM[i], src[i-1])
			}
			if z+1 < nz {
				s = fp16.Add(s, fp16.Mul(o.ZP[i], src[i+1]))
			}
			if x+1 < m.NX {
				s = fp16.Add(s, fp16.Mul(o.XP[i], src[i+nz]))
			}
			if x > 0 {
				s = fp16.Add(s, fp16.Mul(o.XM[i], src[i-nz]))
			}
			if y+1 < m.NY {
				s = fp16.Add(s, fp16.Mul(o.YP[i], src[i+m.NX*nz]))
			}
			if y > 0 {
				s = fp16.Add(s, fp16.Mul(o.YM[i], src[i-m.NX*nz]))
			}
			dst[i] = fp16.Add(s, src[i]) // unit main diagonal
		}
	}
}
