package mfix

import (
	"fmt"
	"math"

	"repro/internal/solver"
	"repro/internal/stencil"
)

// Cavity2D is the planar lid-driven cavity solved with the SIMPLE
// algorithm on a staggered MAC grid: u on x-faces, v on y-faces,
// pressure at cell centres. It is the 3D Cavity's 2D counterpart, with
// one structural difference: every linear solve goes through a
// pluggable solver.Backend, so the pressure-correction system — the
// dominant solve, 20 BiCGStab iterations per SIMPLE sweep in the
// paper's budget — can execute on the cycle-simulated wafer through the
// §IV-2 block-halo mapping (kernels.NewWafer2DBackend) while the momentum
// systems (whose (n−1)×n meshes do not tile the fabric) stay on the
// host backend. Convection is first-order upwind, the scheme Table II
// budgets; solver limits default to the paper's 5 momentum / 20
// pressure iterations.
//
// With the same backend the evolution is deterministic, and with the
// wafer backend it is bit-identical across simulation engines — the
// residual-history equivalence tests lean on this.
type Cavity2D struct {
	N  int     // cells per side
	Re float64 // Reynolds number (lid speed and cavity edge are 1)

	AlphaU, AlphaP float64 // under-relaxation factors
	MomentumIters  int
	PressureIters  int

	// Momentum and Pressure select the linear-solve backends; both
	// default to the in-process float64 host backend.
	Momentum solver.Backend
	Pressure solver.Backend

	// RecordPressureHistory appends each pressure solve's residual
	// history to PressureResiduals (cross-backend and cross-engine
	// comparisons).
	RecordPressureHistory bool
	PressureResiduals     [][]float64

	h  float64
	mu float64
	// vel[a] holds the axis-a face velocities; dims[a] are its grid
	// extents (N+1 along the axis, N across).
	vel  [2][]float64
	dims [2][2]int
	d    [2][]float64 // pressure-correction coefficients per face
	p    []float64
}

// NewCavity2D allocates an n² cavity with the paper's solver limits and
// host backends.
func NewCavity2D(n int, re float64) *Cavity2D {
	c := &Cavity2D{
		N: n, Re: re,
		AlphaU: 0.7, AlphaP: 0.3,
		MomentumIters: 5, PressureIters: 20,
		Momentum: solver.Host{}, Pressure: solver.Host{},
		h: 1 / float64(n), mu: 1 / re,
	}
	for a := 0; a < 2; a++ {
		c.dims[a] = [2]int{n, n}
		c.dims[a][a] = n + 1
		size := c.dims[a][0] * c.dims[a][1]
		c.vel[a] = make([]float64, size)
		c.d[a] = make([]float64, size)
	}
	c.p = make([]float64, n*n)
	return c
}

// fidx flattens a face index for axis a.
func (c *Cavity2D) fidx(a int, q [2]int) int { return q[1]*c.dims[a][0] + q[0] }

// V returns the axis-a face velocity at (i, j).
func (c *Cavity2D) V(a, i, j int) float64 { return c.vel[a][c.fidx(a, [2]int{i, j})] }

// cidx flattens a cell index, row-major like stencil.Mesh2D.
func (c *Cavity2D) cidx(i, j int) int { return j*c.N + i }

// P returns the cell pressure.
func (c *Cavity2D) P(i, j int) float64 { return c.p[c.cidx(i, j)] }

// unit2 returns the axis-t unit index offset.
func unit2(t int) [2]int {
	var e [2]int
	e[t] = 1
	return e
}

func addIdx2(a, b [2]int, s int) [2]int {
	return [2]int{a[0] + s*b[0], a[1] + s*b[1]}
}

// Step performs one SIMPLE iteration.
func (c *Cavity2D) Step() (Residuals, error) {
	var prev [2][]float64
	for a := 0; a < 2; a++ {
		prev[a] = append([]float64(nil), c.vel[a]...)
	}
	for a := 0; a < 2; a++ {
		if err := c.solveMomentum(a); err != nil {
			return Residuals{}, fmt.Errorf("mfix: 2D momentum axis %d: %w", a, err)
		}
	}
	mass, err := c.pressureCorrection()
	if err != nil {
		return Residuals{}, fmt.Errorf("mfix: 2D continuity: %w", err)
	}
	var dd, nn float64
	for a := 0; a < 2; a++ {
		for i := range c.vel[a] {
			df := c.vel[a][i] - prev[a][i]
			dd += df * df
			nn += c.vel[a][i] * c.vel[a][i]
		}
	}
	return Residuals{Mass: mass, Momentum: math.Sqrt(dd / (nn + 1e-30))}, nil
}

// Run performs iters SIMPLE iterations.
func (c *Cavity2D) Run(iters int) ([]Residuals, error) {
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

// coef9 returns the 9-point coefficient slice for the 2D axis-t
// neighbour in the given direction (corner diagonals stay zero: the
// discretization is 5-point, embedded in the Op9 the backends consume).
func coef9(op *stencil.Op9, t, sign int) []float64 {
	switch {
	case t == 0 && sign > 0:
		return op.C[5] // +x
	case t == 0:
		return op.C[3] // -x
	case sign > 0:
		return op.C[7] // +y
	default:
		return op.C[1] // -y
	}
}

// solveMomentum assembles and partially solves the axis-a momentum
// system over the interior axis-a faces: first-order upwind convection,
// central diffusion, half-cell wall conductance, pressure-gradient
// source, and implicit under-relaxation — the 2D restriction of the 3D
// assembly.
func (c *Cavity2D) solveMomentum(a int) error {
	n := c.N
	area := c.h   // face length in 2D
	dDiff := c.mu // μ·A/h with A = h
	ea := unit2(a)

	mesh := stencil.Mesh2D{NX: n, NY: n}
	if a == 0 {
		mesh.NX = n - 1
	} else {
		mesh.NY = n - 1
	}
	op := stencil.NewOp9(mesh)
	b := make([]float64, mesh.N())
	x0 := make([]float64, mesh.N())

	var q [2]int
	c.forEachUnknown(a, &q, func(mi [2]int) {
		m := mesh.Index(mi[0], mi[1])
		var sumA, netF, rhs float64
		for t := 0; t < 2; t++ {
			et := unit2(t)
			var fPlus, fMinus float64
			if t == a {
				fPlus = area * 0.5 * (c.vel[a][c.fidx(a, addIdx2(q, ea, 1))] + c.vel[a][c.fidx(a, q)])
				fMinus = area * 0.5 * (c.vel[a][c.fidx(a, q)] + c.vel[a][c.fidx(a, addIdx2(q, ea, -1))])
			} else {
				pp := addIdx2(q, et, 1)
				fPlus = area * 0.5 * (c.vel[t][c.fidx(t, pp)] + c.vel[t][c.fidx(t, addIdx2(pp, ea, -1))])
				fMinus = area * 0.5 * (c.vel[t][c.fidx(t, q)] + c.vel[t][c.fidx(t, addIdx2(q, ea, -1))])
			}
			netF += fPlus - fMinus
			aPlus := dDiff + math.Max(-fPlus, 0)
			aMinus := dDiff + math.Max(fMinus, 0)

			// Plus-side neighbour.
			if q[t]+1 > n-1 {
				if t == a {
					sumA += aPlus // fixed boundary face, velocity zero
				} else {
					aPlus += dDiff // half-cell wall conductance
					bval := 0.0
					if a == 0 && t == 1 {
						bval = 1.0 // the moving lid (+y wall, u component)
					}
					rhs += aPlus * bval
					sumA += aPlus
				}
			} else {
				coef9(op, t, +1)[m] = -aPlus
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
				coef9(op, t, -1)[m] = -aMinus
				sumA += aMinus
			}
		}
		// Pressure gradient between the two adjacent cells.
		cm := addIdx2(q, ea, -1)
		rhs += (c.p[c.cidx(cm[0], cm[1])] - c.p[c.cidx(q[0], q[1])]) * area

		aP := (sumA + netF) / c.AlphaU
		rhs += (1 - c.AlphaU) * aP * c.vel[a][c.fidx(a, q)]
		op.C[4][m] = aP
		b[m] = rhs
		x0[m] = c.vel[a][c.fidx(a, q)]
		c.d[a][c.fidx(a, q)] = area / aP
	})

	sol, _, err := c.solve(c.Momentum, op, b, x0, c.MomentumIters)
	if err != nil {
		return err
	}
	c.forEachUnknown(a, &q, func(mi [2]int) {
		c.vel[a][c.fidx(a, q)] = sol[mesh.Index(mi[0], mi[1])]
	})
	return nil
}

// forEachUnknown visits every interior axis-a face; q receives the face
// index and the callback gets the zero-based mesh index.
func (c *Cavity2D) forEachUnknown(a int, q *[2]int, fn func(mi [2]int)) {
	n := c.N
	lo := [2]int{0, 0}
	hi := [2]int{n, n} // exclusive
	lo[a] = 1
	for j := lo[1]; j < hi[1]; j++ {
		for i := lo[0]; i < hi[0]; i++ {
			*q = [2]int{i, j}
			mi := *q
			mi[a]-- // mesh is zero-based along the unknown axis
			fn(mi)
		}
	}
}

// pressureCorrection assembles the continuity (pressure-correction)
// system on the n×n cell mesh — the system the wafer backend solves —
// corrects velocities and pressure, and returns the pre-correction mass
// imbalance (∞-norm).
func (c *Cavity2D) pressureCorrection() (float64, error) {
	n := c.N
	area := c.h
	mesh := stencil.Mesh2D{NX: n, NY: n}
	op := stencil.NewOp9(mesh)
	b := make([]float64, mesh.N())
	maxImb := 0.0

	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			m := c.cidx(i, j)
			q := [2]int{i, j}
			var sumA float64
			for t := 0; t < 2; t++ {
				et := unit2(t)
				plusFace := addIdx2(q, et, 1)
				aPlus := area * c.d[t][c.fidx(t, plusFace)] // zero at walls (never set)
				aMinus := area * c.d[t][c.fidx(t, q)]
				coef9(op, t, +1)[m] = -aPlus
				coef9(op, t, -1)[m] = -aMinus
				sumA += aPlus + aMinus
				// Mass imbalance: inflow − outflow.
				b[m] += area * (c.vel[t][c.fidx(t, q)] - c.vel[t][c.fidx(t, plusFace)])
			}
			op.C[4][m] = sumA
			maxImb = math.Max(maxImb, math.Abs(b[m]))
		}
	}
	// The pure-Neumann system is singular: pin the first cell.
	op.C[4][0] = 1
	for k := range op.C {
		if k != 4 {
			op.C[k][0] = 0
		}
	}
	b[0] = 0

	pc, stats, err := c.solve(c.Pressure, op, b, make([]float64, mesh.N()), c.PressureIters)
	if err != nil {
		return maxImb, err
	}
	if c.RecordPressureHistory {
		c.PressureResiduals = append(c.PressureResiduals, stats.History)
	}

	// Correct faces and pressure.
	var q [2]int
	for a := 0; a < 2; a++ {
		c.forEachUnknown(a, &q, func(_ [2]int) {
			cm := addIdx2(q, unit2(a), -1)
			fi := c.fidx(a, q)
			c.vel[a][fi] += c.d[a][fi] * (pc[c.cidx(cm[0], cm[1])] - pc[c.cidx(q[0], q[1])])
		})
	}
	for i := range c.p {
		c.p[i] += c.AlphaP * pc[i]
	}
	return maxImb, nil
}

// solve normalizes the system and hands it to the backend for a bounded
// iteration count, as the paper limits the inner solves.
func (c *Cavity2D) solve(be solver.Backend, op *stencil.Op9, b, x0 []float64, iters int) ([]float64, solver.Stats, error) {
	norm, diag := op.Normalize9()
	sol, stats, err := be.Solve(norm, stencil.ScaleRHS(b, diag), x0, solver.Options{
		MaxIter: iters, Tol: 1e-12, RecordHistory: c.RecordPressureHistory,
	})
	if err != nil {
		if err == solver.ErrZeroRHS {
			return x0, stats, nil
		}
		return nil, stats, err
	}
	return sol, stats, nil
}

// MassResidual recomputes the current ∞-norm mass imbalance.
func (c *Cavity2D) MassResidual() float64 {
	n := c.N
	area := c.h
	maxImb := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			q := [2]int{i, j}
			var imb float64
			for t := 0; t < 2; t++ {
				imb += area * (c.vel[t][c.fidx(t, q)] - c.vel[t][c.fidx(t, addIdx2(q, unit2(t), 1))])
			}
			maxImb = math.Max(maxImb, math.Abs(imb))
		}
	}
	return maxImb
}

// CenterlineU samples u along the vertical centreline (x = 0.5),
// returning one value per cell row from bottom to lid — the standard
// cavity validation profile (Ghia et al.), directly comparable to the
// 3D Cavity's mid-plane CenterlineU at matching Re and N.
func (c *Cavity2D) CenterlineU() []float64 {
	n := c.N
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		out[j] = c.V(0, n/2, j)
	}
	return out
}
