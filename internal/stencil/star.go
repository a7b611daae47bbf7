package stencil

import "repro/internal/fp16"

// OpStar is a general 3D star-stencil operator: the centre plus
// axis-aligned neighbours out to per-axis widths W. It generalizes Op7
// (the W = {1,1,1} case) to the high-order stencils the stencil
// compiler opens up — the 25-point seismic Laplacian stores four
// coefficient diagonals per direction. Coefficients are indexed
// [dist-1][meshpoint]: XP[2][i] multiplies the neighbour at x+3 of
// point i.
type OpStar struct {
	M Mesh
	W [3]int // per-axis halo widths (x, y, z), each >= 1
	// Boundary selects Dirichlet truncation (wafer-lowerable) or
	// periodic wrap (host reference only).
	Boundary Boundary

	C                      []float64   // centre coefficient
	XP, XM, YP, YM, ZP, ZM [][]float64 // [dist-1], each of length M.N()
}

// NewOpStar allocates a zero operator on m with widths w.
func NewOpStar(m Mesh, w [3]int) *OpStar {
	o := &OpStar{M: m, W: w, C: make([]float64, m.N())}
	alloc := func(width int) [][]float64 {
		cols := make([][]float64, width)
		for i := range cols {
			cols[i] = make([]float64, m.N())
		}
		return cols
	}
	o.XP, o.XM = alloc(w[0]), alloc(w[0])
	o.YP, o.YM = alloc(w[1]), alloc(w[1])
	o.ZP, o.ZM = alloc(w[2]), alloc(w[2])
	return o
}

// neighbour returns the linear index of (x,y,z) offset by dist along
// axis, or -1 under Dirichlet truncation when it leaves the mesh.
func (o *OpStar) neighbour(x, y, z, axis, dist int) int {
	m := o.M
	switch axis {
	case 0:
		x += dist
	case 1:
		y += dist
	default:
		z += dist
	}
	if o.Boundary == Periodic {
		x, y, z = wrap(x, m.NX), wrap(y, m.NY), wrap(z, m.NZ)
	} else if x < 0 || x >= m.NX || y < 0 || y >= m.NY || z < 0 || z >= m.NZ {
		return -1
	}
	return m.Index(x, y, z)
}

func wrap(i, n int) int { return ((i % n) + n) % n }

// Apply computes dst = A·src in float64, accumulating terms in the
// compiler's canonical order (z pairs by distance, then lateral
// direction-major, then the centre) so host diagnostics are
// deterministic across runs.
func (o *OpStar) Apply(dst, src []float64) {
	m := o.M
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			for z := 0; z < m.NZ; z++ {
				i := m.Index(x, y, z)
				var s float64
				for k := 1; k <= o.W[2]; k++ {
					if j := o.neighbour(x, y, z, 2, -k); j >= 0 {
						s += o.ZM[k-1][i] * src[j]
					}
					if j := o.neighbour(x, y, z, 2, k); j >= 0 {
						s += o.ZP[k-1][i] * src[j]
					}
				}
				for k := 1; k <= o.W[0]; k++ {
					if j := o.neighbour(x, y, z, 0, k); j >= 0 {
						s += o.XP[k-1][i] * src[j]
					}
				}
				for k := 1; k <= o.W[0]; k++ {
					if j := o.neighbour(x, y, z, 0, -k); j >= 0 {
						s += o.XM[k-1][i] * src[j]
					}
				}
				for k := 1; k <= o.W[1]; k++ {
					if j := o.neighbour(x, y, z, 1, k); j >= 0 {
						s += o.YP[k-1][i] * src[j]
					}
				}
				for k := 1; k <= o.W[1]; k++ {
					if j := o.neighbour(x, y, z, 1, -k); j >= 0 {
						s += o.YM[k-1][i] * src[j]
					}
				}
				dst[i] = s + o.C[i]*src[i]
			}
		}
	}
}

// Normalize divides every row by its centre coefficient, returning the
// unit-diagonal operator and the scale vector (apply to the RHS with
// ScaleRHS). It panics on a zero centre.
func (o *OpStar) Normalize() (*OpStar, []float64) {
	out := NewOpStar(o.M, o.W)
	out.Boundary = o.Boundary
	scale := make([]float64, o.M.N())
	groups := [][2][][]float64{
		{o.XP, out.XP}, {o.XM, out.XM},
		{o.YP, out.YP}, {o.YM, out.YM},
		{o.ZP, out.ZP}, {o.ZM, out.ZM},
	}
	for i := 0; i < o.M.N(); i++ {
		d := o.C[i]
		if d == 0 {
			panic("stencil: zero centre coefficient")
		}
		scale[i] = d
		out.C[i] = 1
		for _, g := range groups {
			for k := range g[0] {
				g[1][k][i] = g[0][k][i] / d
			}
		}
	}
	return out, scale
}

// IsUnitDiagonal reports whether every centre coefficient is exactly 1.
func (o *OpStar) IsUnitDiagonal() bool {
	for _, v := range o.C {
		if v != 1 {
			return false
		}
	}
	return true
}

// ResidualNorm returns ‖b − A·x‖₂.
func (o *OpStar) ResidualNorm(x, b []float64) float64 { return ResidualNorm(o, x, b) }

// N implements Operator.
func (o *OpStar) N() int { return o.M.N() }

// OffDiagonals implements Operator: 2(Wx+Wy+Wz) axis neighbours.
func (o *OpStar) OffDiagonals() int { return 2 * (o.W[0] + o.W[1] + o.W[2]) }

// Normalized implements Operator.
func (o *OpStar) Normalized() (Operator, []float64) { return o.Normalize() }

// OpStarHalf is the fp16 image of a unit-diagonal star operator —
// what a wafer tile stores. Its Apply is the functional reference the
// compiled Program3D must match bitwise.
type OpStarHalf struct {
	M                      Mesh
	W                      [3]int
	XP, XM, YP, YM, ZP, ZM [][]fp16.Float16
}

// NewOpStarHalf rounds a unit-diagonal star operator to fp16 storage.
// It panics if the operator has not been normalized or is periodic
// (the fp16 reference replays the wafer's Dirichlet program order).
func NewOpStarHalf(o *OpStar) *OpStarHalf {
	if !o.IsUnitDiagonal() {
		panic("stencil: OpStarHalf requires a diagonally preconditioned (unit-diagonal) operator")
	}
	if o.Boundary != Dirichlet {
		panic("stencil: OpStarHalf is the wafer reference; only Dirichlet truncation lowers")
	}
	h := &OpStarHalf{M: o.M, W: o.W}
	round := func(cols [][]float64) [][]fp16.Float16 {
		out := make([][]fp16.Float16, len(cols))
		for i, c := range cols {
			out[i] = fp16.FromFloat64Slice(c)
		}
		return out
	}
	h.XP, h.XM = round(o.XP), round(o.XM)
	h.YP, h.YM = round(o.YP), round(o.YM)
	h.ZP, h.ZM = round(o.ZP), round(o.ZM)
	return h
}

// Apply computes dst = A·src with fp16 arithmetic in the compiler's
// canonical rounding order: the distance-1 zm term is a bare multiply
// (the compiled program's first MemOp overwrites the zeroed result
// column, preserving a negative-zero product where add-to-zero would
// not), every later term is a multiply then an accumulate add — z pairs
// by distance, lateral terms direction-major (xp, xm, yp, ym) with
// distance inner, then the unmultiplied unit diagonal. At W = {1,1,1}
// this is exactly Op7Half.Apply, which the 7-point equivalence test
// pins bitwise.
func (o *OpStarHalf) Apply(dst, src []fp16.Float16) {
	m := o.M
	nz := m.NZ
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			base := (y*m.NX + x) * nz
			for z := 0; z < nz; z++ {
				i := base + z
				s := fp16.Zero
				if z > 0 {
					s = fp16.Mul(o.ZM[0][i], src[i-1])
				}
				if z+1 < nz {
					s = fp16.Add(s, fp16.Mul(o.ZP[0][i], src[i+1]))
				}
				for k := 2; k <= o.W[2]; k++ {
					if z-k >= 0 {
						s = fp16.Add(s, fp16.Mul(o.ZM[k-1][i], src[i-k]))
					}
					if z+k < nz {
						s = fp16.Add(s, fp16.Mul(o.ZP[k-1][i], src[i+k]))
					}
				}
				for k := 1; k <= o.W[0]; k++ {
					if x+k < m.NX {
						s = fp16.Add(s, fp16.Mul(o.XP[k-1][i], src[i+k*nz]))
					}
				}
				for k := 1; k <= o.W[0]; k++ {
					if x-k >= 0 {
						s = fp16.Add(s, fp16.Mul(o.XM[k-1][i], src[i-k*nz]))
					}
				}
				for k := 1; k <= o.W[1]; k++ {
					if y+k < m.NY {
						s = fp16.Add(s, fp16.Mul(o.YP[k-1][i], src[i+k*m.NX*nz]))
					}
				}
				for k := 1; k <= o.W[1]; k++ {
					if y-k >= 0 {
						s = fp16.Add(s, fp16.Mul(o.YM[k-1][i], src[i-k*m.NX*nz]))
					}
				}
				dst[i] = fp16.Add(s, src[i]) // unit main diagonal
			}
		}
	}
}

// laplace8 holds the 8th-order central finite-difference weights of the
// second derivative: d²u/dx² ≈ (Σ_k w[k](u₊ₖ + u₋ₖ) − a0·u)/h².
var laplace8 = [4]float64{8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560}

const laplace8Centre = 205.0 / 72

// Seismic25 builds the 25-point high-order seismic operator
// A = I + s·(−Δ₈), the implicit step of an acoustic wave propagation
// with s = (v·dt/h)²: an 8th-order Laplacian star of width 4 on every
// axis (Jacquelin et al.'s wafer workload). The discrete −Δ₈ symbol is
// nonnegative, so A's spectrum sits in [1, 1 + s·λmax] and BiCGStab
// converges fast for moderate s.
func Seismic25(m Mesh, s float64) *OpStar {
	o := NewOpStar(m, [3]int{4, 4, 4})
	centre := 1 + 3*s*laplace8Centre
	for i := 0; i < m.N(); i++ {
		o.C[i] = centre
		for k := 0; k < 4; k++ {
			w := -s * laplace8[k]
			o.XP[k][i], o.XM[k][i] = w, w
			o.YP[k][i], o.YM[k][i] = w, w
			o.ZP[k][i], o.ZM[k][i] = w, w
		}
	}
	return o
}

// Heat3D builds the implicit-Euler heat step (I + λ·(−Δ₂)) with
// λ = α·dt/h²: the 7-point width-1 star. Each time step solves
// A·u⁽ⁿ⁺¹⁾ = u⁽ⁿ⁾; the implicit form is unconditionally stable, so λ
// is a accuracy knob, not a stability bound.
func Heat3D(m Mesh, lambda float64, boundary Boundary) *OpStar {
	o := NewOpStar(m, [3]int{1, 1, 1})
	o.Boundary = boundary
	for i := 0; i < m.N(); i++ {
		o.C[i] = 1 + 6*lambda
		o.XP[0][i], o.XM[0][i] = -lambda, -lambda
		o.YP[0][i], o.YM[0][i] = -lambda, -lambda
		o.ZP[0][i], o.ZM[0][i] = -lambda, -lambda
	}
	return o
}

// Heat2D builds the 2D implicit-Euler heat step (I + λ·(−Δ₂)) as a
// 9-point operator with zero corners — the coefficient source for the
// compiled 5-point star program, which checks the corners are zero and
// emits four fewer MemOps than the box.
func Heat2D(m Mesh2D, lambda float64) *Op9 {
	o := NewOp9(m)
	for i := 0; i < m.N(); i++ {
		o.C[4][i] = 1 + 4*lambda
		o.C[1][i], o.C[3][i], o.C[5][i], o.C[7][i] = -lambda, -lambda, -lambda, -lambda
	}
	return o
}

// FromOp7 views a unit-diagonal 7-point operator as the width-1 star
// (shared backing arrays, no copy).
func FromOp7(o *Op7) *OpStar {
	return &OpStar{
		M: o.M, W: [3]int{1, 1, 1}, C: o.D,
		XP: [][]float64{o.XP}, XM: [][]float64{o.XM},
		YP: [][]float64{o.YP}, YM: [][]float64{o.YM},
		ZP: [][]float64{o.ZP}, ZM: [][]float64{o.ZM},
	}
}

// HalfFromOp7 views a 7-point fp16 operator as the width-1 star half
// image (shared backing arrays, no copy).
func HalfFromOp7(o *Op7Half) *OpStarHalf {
	return &OpStarHalf{
		M: o.M, W: [3]int{1, 1, 1},
		XP: [][]fp16.Float16{o.XP}, XM: [][]fp16.Float16{o.XM},
		YP: [][]fp16.Float16{o.YP}, YM: [][]fp16.Float16{o.YM},
		ZP: [][]fp16.Float16{o.ZP}, ZM: [][]fp16.Float16{o.ZM},
	}
}
