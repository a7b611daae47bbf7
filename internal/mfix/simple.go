package mfix

import (
	"fmt"
	"math"

	"repro/internal/solver"
	"repro/internal/stencil"
)

// Cavity is a steady, incompressible, single-phase lid-driven cavity
// solved with the SIMPLE algorithm (Algorithm 2 of the paper) on a
// staggered MAC grid: u on x-faces, v on y-faces, w on z-faces, pressure
// at cell centres. Convection is first-order upwind (the scheme Table II
// budgets); the momentum systems are solved with BiCGStab limited to 5
// iterations and the pressure correction to 20, the limits the paper
// states for MFIX. The lid is the y-top wall moving with unit velocity
// in +x; all other walls are no-slip.
type Cavity struct {
	N  int     // cells per side
	Re float64 // Reynolds number (lid speed and cavity edge are 1)

	AlphaU, AlphaP float64 // under-relaxation factors
	MomentumIters  int
	PressureIters  int

	h  float64
	mu float64
	// vel[a] holds the axis-a face velocities; dims[a] are its grid
	// extents (N+1 along the axis, N across).
	vel  [3][]float64
	dims [3][3]int
	d    [3][]float64 // pressure-correction coefficients per face
	p    []float64
}

// NewCavity allocates an n³ cavity with the paper's solver limits.
func NewCavity(n int, re float64) *Cavity {
	c := &Cavity{
		N: n, Re: re,
		AlphaU: 0.7, AlphaP: 0.3,
		MomentumIters: 5, PressureIters: 20,
		h: 1 / float64(n), mu: 1 / re,
	}
	for a := 0; a < 3; a++ {
		c.dims[a] = [3]int{n, n, n}
		c.dims[a][a] = n + 1
		size := c.dims[a][0] * c.dims[a][1] * c.dims[a][2]
		c.vel[a] = make([]float64, size)
		c.d[a] = make([]float64, size)
	}
	c.p = make([]float64, n*n*n)
	return c
}

// fidx flattens a face index for axis a.
func (c *Cavity) fidx(a int, q [3]int) int {
	d := c.dims[a]
	return (q[2]*d[1]+q[1])*d[0] + q[0]
}

// V returns the axis-a face velocity at q.
func (c *Cavity) V(a int, i, j, k int) float64 { return c.vel[a][c.fidx(a, [3]int{i, j, k})] }

// cidx flattens a cell index with the same ordering stencil.Mesh uses
// ((y·NX + x)·NZ + z), so cell arrays align with the Op7 systems built
// over the cell mesh.
func (c *Cavity) cidx(i, j, k int) int { return (j*c.N+i)*c.N + k }

// P returns the cell pressure.
func (c *Cavity) P(i, j, k int) float64 { return c.p[c.cidx(i, j, k)] }

// Residuals of one SIMPLE iteration.
type Residuals struct {
	Mass     float64 // ‖mass imbalance‖∞ before the correction
	Momentum float64 // relative change of the velocity fields
}

// Step performs one SIMPLE iteration (Algorithm 2 lines 3–10).
func (c *Cavity) Step() (Residuals, error) {
	var prev [3][]float64
	for a := 0; a < 3; a++ {
		prev[a] = append([]float64(nil), c.vel[a]...)
	}
	for a := 0; a < 3; a++ {
		if err := c.solveMomentum(a); err != nil {
			return Residuals{}, fmt.Errorf("mfix: momentum axis %d: %w", a, err)
		}
	}
	mass, err := c.pressureCorrection()
	if err != nil {
		return Residuals{}, fmt.Errorf("mfix: continuity: %w", err)
	}
	var dd, nn float64
	for a := 0; a < 3; a++ {
		for i := range c.vel[a] {
			df := c.vel[a][i] - prev[a][i]
			dd += df * df
			nn += c.vel[a][i] * c.vel[a][i]
		}
	}
	return Residuals{Mass: mass, Momentum: math.Sqrt(dd / (nn + 1e-30))}, nil
}

// Run performs iters SIMPLE iterations.
func (c *Cavity) Run(iters int) ([]Residuals, error) {
	out := make([]Residuals, 0, iters)
	for i := 0; i < iters; i++ {
		r, err := c.Step()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// unit returns the axis-t unit index offset.
func unit(t int) [3]int {
	var e [3]int
	e[t] = 1
	return e
}

func addIdx(a, b [3]int, s int) [3]int {
	return [3]int{a[0] + s*b[0], a[1] + s*b[1], a[2] + s*b[2]}
}

// solveMomentum assembles and partially solves the axis-a momentum
// system over the interior axis-a faces. First-order upwind convection,
// central diffusion, half-cell wall conductance, pressure gradient
// source, and implicit under-relaxation.
func (c *Cavity) solveMomentum(a int) error {
	n := c.N
	area := c.h * c.h
	dDiff := c.mu * c.h // μ·A / h
	ea := unit(a)

	// Unknowns: axis-a index 1..n-1, transverse 0..n-1.
	mesh := stencil.Mesh{NX: n, NY: n, NZ: n}
	switch a {
	case 0:
		mesh.NX = n - 1
	case 1:
		mesh.NY = n - 1
	default:
		mesh.NZ = n - 1
	}
	op := stencil.NewOp7(mesh)
	b := make([]float64, mesh.N())
	x0 := make([]float64, mesh.N())

	coefOf := func(t, sign int) *[]float64 {
		switch {
		case t == 0 && sign > 0:
			return &op.XP
		case t == 0:
			return &op.XM
		case t == 1 && sign > 0:
			return &op.YP
		case t == 1:
			return &op.YM
		case sign > 0:
			return &op.ZP
		default:
			return &op.ZM
		}
	}

	var q [3]int
	forEachUnknown(a, n, &q, func(mi [3]int) {
		m := mesh.Index(mi[0], mi[1], mi[2])
		var sumA, netF, rhs float64
		for t := 0; t < 3; t++ {
			et := unit(t)
			var fPlus, fMinus float64
			if t == a {
				fPlus = area * 0.5 * (c.vel[a][c.fidx(a, addIdx(q, ea, 1))] + c.vel[a][c.fidx(a, q)])
				fMinus = area * 0.5 * (c.vel[a][c.fidx(a, q)] + c.vel[a][c.fidx(a, addIdx(q, ea, -1))])
			} else {
				pp := addIdx(q, et, 1)
				fPlus = area * 0.5 * (c.vel[t][c.fidx(t, pp)] + c.vel[t][c.fidx(t, addIdx(pp, ea, -1))])
				fMinus = area * 0.5 * (c.vel[t][c.fidx(t, q)] + c.vel[t][c.fidx(t, addIdx(q, ea, -1))])
			}
			netF += fPlus - fMinus
			aPlus := dDiff + math.Max(-fPlus, 0)
			aMinus := dDiff + math.Max(fMinus, 0)

			// Plus-side neighbour.
			hiBound := n - 1
			if q[t]+1 > hiBound || (t == a && q[t]+1 > n-1) {
				// Beyond the last unknown: either a fixed boundary face
				// (t == a) or a wall (t != a).
				if t == a {
					rhs += aPlus * 0 // boundary face velocity is zero
					sumA += aPlus
				} else {
					aPlus += dDiff // half-cell wall conductance: 2·μA/h total
					bval := 0.0
					if a == 0 && t == 1 {
						bval = 1.0 // the moving lid (+y wall, u component)
					}
					rhs += aPlus * bval
					sumA += aPlus
				}
			} else {
				(*coefOf(t, +1))[m] = -aPlus
				sumA += aPlus
			}
			// Minus-side neighbour.
			loBound := 0
			if t == a {
				loBound = 1
			}
			if q[t]-1 < loBound {
				if t == a {
					sumA += aMinus // boundary face, velocity zero
				} else {
					aMinus += dDiff
					sumA += aMinus // stationary wall
				}
			} else {
				(*coefOf(t, -1))[m] = -aMinus
				sumA += aMinus
			}
		}
		// Pressure gradient between the two adjacent cells.
		cm := addIdx(q, ea, -1)
		rhs += (c.p[c.cidx(cm[0], cm[1], cm[2])] - c.p[c.cidx(q[0], q[1], q[2])]) * area

		aP := (sumA + netF) / c.AlphaU
		rhs += (1 - c.AlphaU) * aP * c.vel[a][c.fidx(a, q)]
		op.D[m] = aP
		b[m] = rhs
		x0[m] = c.vel[a][c.fidx(a, q)]
		c.d[a][c.fidx(a, q)] = area / aP
	})

	sol, err := c.solveSystem(op, b, x0, c.MomentumIters)
	if err != nil {
		return err
	}
	forEachUnknown(a, n, &q, func(mi [3]int) {
		c.vel[a][c.fidx(a, q)] = sol[mesh.Index(mi[0], mi[1], mi[2])]
	})
	return nil
}

// forEachUnknown visits every interior axis-a face; q receives the face
// index and the callback gets the zero-based mesh index.
func forEachUnknown(a, n int, q *[3]int, fn func(mi [3]int)) {
	lo := [3]int{0, 0, 0}
	hi := [3]int{n, n, n} // exclusive
	lo[a] = 1
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			for i := lo[0]; i < hi[0]; i++ {
				*q = [3]int{i, j, k}
				mi := *q
				mi[a]-- // mesh is zero-based along the unknown axis
				fn(mi)
			}
		}
	}
}

// pressureCorrection assembles the continuity (pressure-correction)
// system, solves it, and corrects velocities and pressure. It returns
// the pre-correction mass imbalance (∞-norm).
func (c *Cavity) pressureCorrection() (float64, error) {
	n := c.N
	area := c.h * c.h
	mesh := stencil.Mesh{NX: n, NY: n, NZ: n}
	op := stencil.NewOp7(mesh)
	b := make([]float64, mesh.N())
	maxImb := 0.0

	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				m := c.cidx(i, j, k)
				q := [3]int{i, j, k}
				var sumA float64
				for t := 0; t < 3; t++ {
					et := unit(t)
					plusFace := addIdx(q, et, 1)
					aPlus := area * c.d[t][c.fidx(t, plusFace)] // zero at walls (never set)
					aMinus := area * c.d[t][c.fidx(t, q)]
					switch t {
					case 0:
						op.XP[m] = -aPlus
						op.XM[m] = -aMinus
					case 1:
						op.YP[m] = -aPlus
						op.YM[m] = -aMinus
					default:
						op.ZP[m] = -aPlus
						op.ZM[m] = -aMinus
					}
					sumA += aPlus + aMinus
					// Mass imbalance: inflow − outflow.
					b[m] += area * (c.vel[t][c.fidx(t, q)] - c.vel[t][c.fidx(t, plusFace)])
				}
				op.D[m] = sumA
				maxImb = math.Max(maxImb, math.Abs(b[m]))
			}
		}
	}
	// The pure-Neumann system is singular: pin the first cell.
	op.D[0] = 1
	op.XP[0], op.XM[0], op.YP[0], op.YM[0], op.ZP[0], op.ZM[0] = 0, 0, 0, 0, 0, 0
	b[0] = 0

	pc, err := c.solveSystem(op, b, make([]float64, mesh.N()), c.PressureIters)
	if err != nil {
		return maxImb, err
	}

	// Correct faces and pressure.
	var q [3]int
	for a := 0; a < 3; a++ {
		forEachUnknown(a, n, &q, func(_ [3]int) {
			cm := addIdx(q, unit(a), -1)
			fi := c.fidx(a, q)
			c.vel[a][fi] += c.d[a][fi] * (pc[c.cidx(cm[0], cm[1], cm[2])] - pc[c.cidx(q[0], q[1], q[2])])
		})
	}
	for i := range c.p {
		c.p[i] += c.AlphaP * pc[i]
	}
	return maxImb, nil
}

// solveSystem normalizes and runs BiCGStab on the float64 host backend
// for a bounded iteration count, as the paper limits the inner solves.
func (c *Cavity) solveSystem(op *stencil.Op7, b, x0 []float64, iters int) ([]float64, error) {
	norm, diag := op.Normalize()
	x, _, err := solver.Host{}.Solve(norm, stencil.ScaleRHS(b, diag), x0, solver.Options{MaxIter: iters, Tol: 1e-12})
	if err == solver.ErrZeroRHS {
		return x0, nil
	}
	return x, err
}

// MassResidual recomputes the current ∞-norm mass imbalance.
func (c *Cavity) MassResidual() float64 {
	n := c.N
	area := c.h * c.h
	maxImb := 0.0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				q := [3]int{i, j, k}
				var imb float64
				for t := 0; t < 3; t++ {
					imb += area * (c.vel[t][c.fidx(t, q)] - c.vel[t][c.fidx(t, addIdx(q, unit(t), 1))])
				}
				maxImb = math.Max(maxImb, math.Abs(imb))
			}
		}
	}
	return maxImb
}

// CenterlineU samples u along the vertical centreline (x = z = 0.5),
// returning one value per cell row from bottom to top — the standard
// cavity validation profile (Ghia et al.).
func (c *Cavity) CenterlineU() []float64 {
	n := c.N
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		out[j] = c.V(0, n/2, j, n/2)
	}
	return out
}
