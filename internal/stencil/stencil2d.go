package stencil

import "math/rand"

// Mesh2D describes an X × Y planar mesh for the paper's sketched 2D
// mapping, where each tile owns a b×b block of meshpoints rather than a
// Z-column.
type Mesh2D struct {
	NX, NY int
}

// N returns the number of meshpoints.
func (m Mesh2D) N() int { return m.NX * m.NY }

// Index returns the linear index of (x, y), row-major.
func (m Mesh2D) Index(x, y int) int { return y*m.NX + x }

// In reports whether (x, y) lies inside the mesh.
func (m Mesh2D) In(x, y int) bool {
	return x >= 0 && x < m.NX && y >= 0 && y < m.NY
}

// Off9 lists the nine stencil offsets of the 2D 9-point stencil in a fixed
// order: index 4 is the centre.
var Off9 = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// Op9 is a 9-point stencil operator on a 2D mesh with zero-Dirichlet
// truncation. C[k][i] multiplies the neighbour at offset Off9[k] of point i.
type Op9 struct {
	M Mesh2D
	C [9][]float64
}

// NewOp9 allocates a zero operator on m.
func NewOp9(m Mesh2D) *Op9 {
	o := &Op9{M: m}
	for k := range o.C {
		o.C[k] = make([]float64, m.N())
	}
	return o
}

// N implements Operator.
func (o *Op9) N() int { return o.M.N() }

// OffDiagonals implements Operator: the eight ring neighbours.
func (o *Op9) OffDiagonals() int { return 8 }

// Normalized implements Operator.
func (o *Op9) Normalized() (Operator, []float64) { return o.Normalize9() }

// IsUnitDiagonal reports whether every centre coefficient is exactly 1,
// the postcondition of Normalize9.
func (o *Op9) IsUnitDiagonal() bool {
	for _, c := range o.C[4] {
		if c != 1 {
			return false
		}
	}
	return true
}

// Apply computes dst = A·src in float64.
func (o *Op9) Apply(dst, src []float64) {
	m := o.M
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			i := m.Index(x, y)
			var s float64
			for k, off := range Off9 {
				nx, ny := x+off[0], y+off[1]
				if m.In(nx, ny) {
					s += o.C[k][i] * src[m.Index(nx, ny)]
				}
			}
			dst[i] = s
		}
	}
}

// Poisson9 builds the 9-point ("Mehrstellen") discrete Laplacian with
// spacing h: centre 20/(6h²), edge neighbours −4/(6h²), corners −1/(6h²).
func Poisson9(m Mesh2D, h float64) *Op9 {
	o := NewOp9(m)
	f := 1 / (6 * h * h)
	w := [9]float64{-1, -4, -1, -4, 20, -4, -1, -4, -1}
	for k := range o.C {
		for i := range o.C[k] {
			o.C[k][i] = w[k] * f
		}
	}
	return o
}

// Normalize9 row-scales the operator so the centre coefficient is one,
// matching the "most problems will precondition the main diagonal to
// unity" assumption of the 2D mapping analysis.
func (o *Op9) Normalize9() (*Op9, []float64) {
	out := NewOp9(o.M)
	scale := make([]float64, o.M.N())
	for i := 0; i < o.M.N(); i++ {
		d := o.C[4][i]
		if d == 0 {
			panic("stencil: zero centre coefficient")
		}
		scale[i] = d
		for k := range o.C {
			out.C[k][i] = o.C[k][i] / d
		}
	}
	return out, scale
}

// Random9 builds a random diagonally dominant 9-point operator.
func Random9(m Mesh2D, dom float64, rng *rand.Rand) *Op9 {
	o := NewOp9(m)
	for i := 0; i < m.N(); i++ {
		sum := 0.0
		for k := range o.C {
			if k == 4 {
				continue
			}
			v := rng.Float64()*2 - 1
			o.C[k][i] = v
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
		o.C[4][i] = dom*sum + 0.1
	}
	return o
}
