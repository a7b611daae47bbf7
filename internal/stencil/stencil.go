// Package stencil defines the regular-mesh finite-difference operators the
// paper solves: the 7-point stencil on a 3D mesh (the CS-1 BiCGStab
// experiment) and the 9-point stencil on a 2D mesh (the sketched 2D SpMV
// mapping). Operators are stored as one coefficient array per nonzero
// diagonal, exactly the layout each wafer tile holds ("we map the needed
// portion of its nonzero diagonals to each core").
//
// Index ordering is column-major over the fabric mapping: meshpoint
// (x, y, z) lives at (y·NX + x)·NZ + z, so that the Z-column owned by one
// tile is contiguous.
package stencil

import (
	"fmt"
	"math"
	"math/rand"
)

// Mesh describes an X × Y × Z box mesh.
type Mesh struct {
	NX, NY, NZ int
}

// N returns the number of meshpoints.
func (m Mesh) N() int { return m.NX * m.NY * m.NZ }

// Index returns the linear index of (x, y, z).
func (m Mesh) Index(x, y, z int) int { return (y*m.NX+x)*m.NZ + z }

// Coords inverts Index.
func (m Mesh) Coords(i int) (x, y, z int) {
	z = i % m.NZ
	c := i / m.NZ
	x = c % m.NX
	y = c / m.NX
	return
}

// In reports whether (x, y, z) lies inside the mesh.
func (m Mesh) In(x, y, z int) bool {
	return x >= 0 && x < m.NX && y >= 0 && y < m.NY && z >= 0 && z < m.NZ
}

func (m Mesh) String() string { return fmt.Sprintf("%d×%d×%d", m.NX, m.NY, m.NZ) }

// Op7 is a 7-point stencil operator on a 3D mesh with zero-Dirichlet
// truncation at the boundary. D is the main diagonal; XP is the coefficient
// multiplying the +x neighbour, and so on. All arrays have length M.N().
type Op7 struct {
	M                         Mesh
	D, XP, XM, YP, YM, ZP, ZM []float64
}

// NewOp7 allocates a zero operator on m.
func NewOp7(m Mesh) *Op7 {
	n := m.N()
	return &Op7{
		M: m,
		D: make([]float64, n), XP: make([]float64, n), XM: make([]float64, n),
		YP: make([]float64, n), YM: make([]float64, n),
		ZP: make([]float64, n), ZM: make([]float64, n),
	}
}

// Operator is what a solve needs of a stencil operator, whatever its
// shape: *Op7, *Op9 and *OpStar implement it, and solver.Backend takes
// one, so a backend sees every stencil through the same four questions.
type Operator interface {
	// N is the number of meshpoints (the system size).
	N() int
	// Apply computes dst = A·src in float64.
	Apply(dst, src []float64)
	// IsUnitDiagonal reports whether the operator is diagonally
	// preconditioned — what every solver and wafer kernel requires.
	IsUnitDiagonal() bool
	// OffDiagonals is the number of off-diagonal stencil points: the
	// multiply-adds one meshpoint costs under a unit diagonal.
	OffDiagonals() int
	// Normalized returns the row-scaled operator D⁻¹A, whose diagonal is
	// all ones, and the original diagonal (apply it to the right-hand
	// side with ScaleRHS).
	Normalized() (Operator, []float64)
}

// N implements Operator.
func (o *Op7) N() int { return o.M.N() }

// OffDiagonals implements Operator: the six face neighbours.
func (o *Op7) OffDiagonals() int { return 6 }

// Normalized implements Operator.
func (o *Op7) Normalized() (Operator, []float64) { return o.Normalize() }

// Apply computes dst = A·src in float64, the reference arithmetic for all
// correctness tests. Out-of-mesh neighbours contribute zero.
func (o *Op7) Apply(dst, src []float64) { o.ApplyColumns(dst, src, 0, o.M.NX*o.M.NY) }

// ApplyColumns is Apply restricted to the Z-columns [c0, c1) in mesh
// order (column c is x = c mod NX, y = c / NX): it writes those columns
// of dst and reads src wherever the stencil reaches, so disjoint ranges
// may run concurrently (solver.Parallel).
func (o *Op7) ApplyColumns(dst, src []float64, c0, c1 int) {
	m := o.M
	nz := m.NZ
	for c := c0; c < c1; c++ {
		x, y := c%m.NX, c/m.NX
		base := c * nz
		for z := 0; z < nz; z++ {
			i := base + z
			s := o.D[i] * src[i]
			if x+1 < m.NX {
				s += o.XP[i] * src[i+nz]
			}
			if x > 0 {
				s += o.XM[i] * src[i-nz]
			}
			if y+1 < m.NY {
				s += o.YP[i] * src[i+m.NX*nz]
			}
			if y > 0 {
				s += o.YM[i] * src[i-m.NX*nz]
			}
			if z+1 < nz {
				s += o.ZP[i] * src[i+1]
			}
			if z > 0 {
				s += o.ZM[i] * src[i-1]
			}
			dst[i] = s
		}
	}
}

// IsUnitDiagonal reports whether every main-diagonal entry is exactly 1,
// the postcondition of Normalize and the precondition of the wafer kernels
// (which do not store or multiply the main diagonal).
func (o *Op7) IsUnitDiagonal() bool {
	for _, d := range o.D {
		if d != 1 {
			return false
		}
	}
	return true
}

// Normalize returns the row-scaled (Jacobi / diagonally preconditioned)
// operator D⁻¹A, whose main diagonal is all ones, together with the
// original diagonal. Solving (D⁻¹A)x = D⁻¹b yields the same x; callers
// scale the right-hand side with ScaleRHS.
func (o *Op7) Normalize() (*Op7, []float64) {
	n := o.M.N()
	scale := make([]float64, n)
	out := NewOp7(o.M)
	for i := 0; i < n; i++ {
		d := o.D[i]
		if d == 0 {
			panic("stencil: zero diagonal; operator cannot be diagonally preconditioned")
		}
		scale[i] = d
		out.D[i] = 1
		out.XP[i] = o.XP[i] / d
		out.XM[i] = o.XM[i] / d
		out.YP[i] = o.YP[i] / d
		out.YM[i] = o.YM[i] / d
		out.ZP[i] = o.ZP[i] / d
		out.ZM[i] = o.ZM[i] / d
	}
	return out, scale
}

// ScaleRHS returns b scaled by the diagonal returned from Normalize.
func ScaleRHS(b, diag []float64) []float64 {
	out := make([]float64, len(b))
	for i := range b {
		out[i] = b[i] / diag[i]
	}
	return out
}

// Poisson builds the standard 7-point discrete Laplacian −Δ on m with grid
// spacing h and zero Dirichlet boundaries: diagonal 6/h², neighbours −1/h².
// It is symmetric positive definite.
func Poisson(m Mesh, h float64) *Op7 {
	o := NewOp7(m)
	ih2 := 1 / (h * h)
	for i := range o.D {
		o.D[i] = 6 * ih2
		o.XP[i], o.XM[i] = -ih2, -ih2
		o.YP[i], o.YM[i] = -ih2, -ih2
		o.ZP[i], o.ZM[i] = -ih2, -ih2
	}
	return o
}

// ConvectionDiffusion builds a nonsymmetric 7-point operator for
// −ν∆u + w·∇u with first-order upwinding of the convective term, the class
// of system BiCGStab exists for. w is the (constant) convection velocity.
func ConvectionDiffusion(m Mesh, nu float64, w [3]float64, h float64) *Op7 {
	o := NewOp7(m)
	ih2 := nu / (h * h)
	ih := 1 / h
	up := func(wc float64) (plus, minus, diag float64) {
		// Donor-cell upwinding: flow in +direction takes from the −side.
		if wc >= 0 {
			return 0, -wc * ih, wc * ih
		}
		return wc * ih, 0, -wc * ih
	}
	xp, xm, xd := up(w[0])
	yp, ym, yd := up(w[1])
	zp, zm, zd := up(w[2])
	for i := range o.D {
		o.D[i] = 6*ih2 + xd + yd + zd
		o.XP[i] = -ih2 + xp
		o.XM[i] = -ih2 + xm
		o.YP[i] = -ih2 + yp
		o.YM[i] = -ih2 + ym
		o.ZP[i] = -ih2 + zp
		o.ZM[i] = -ih2 + zm
	}
	return o
}

// MomentumLike builds the kind of system Figure 9 solves: the implicit
// timestep discretization of a momentum equation — convection–diffusion
// plus a ρ/Δt mass term on the diagonal, making it nonsymmetric and
// strongly diagonally dominant.
func MomentumLike(m Mesh, nu float64, w [3]float64, h, rho, dt float64) *Op7 {
	o := ConvectionDiffusion(m, nu, w, h)
	mass := rho / dt
	for i := range o.D {
		o.D[i] += mass
	}
	return o
}

// RandomDiagDominant builds a random nonsymmetric operator with row
// diagonal dominance factor >= dom (> 1 guarantees convergence of the
// iteration and is used by property tests).
func RandomDiagDominant(m Mesh, dom float64, rng *rand.Rand) *Op7 {
	o := NewOp7(m)
	for i := range o.D {
		sum := 0.0
		for _, c := range []*[]float64{&o.XP, &o.XM, &o.YP, &o.YM, &o.ZP, &o.ZM} {
			v := rng.Float64()*2 - 1
			(*c)[i] = v
			sum += math.Abs(v)
		}
		o.D[i] = dom*sum + 0.1
	}
	return o
}

// ResidualNorm returns ‖b − A·x‖₂ computed in float64.
func ResidualNorm(a Operator, x, b []float64) float64 {
	ax := make([]float64, len(x))
	a.Apply(ax, x)
	var s float64
	for i := range b {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ResidualNorm returns ‖b − A·x‖₂ computed in float64.
func (o *Op7) ResidualNorm(x, b []float64) float64 { return ResidualNorm(o, x, b) }

// Norm2 is the Euclidean norm in float64.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
