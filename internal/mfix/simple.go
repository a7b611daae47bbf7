package mfix

import (
	"fmt"
	"math"

	"repro/internal/solver"
	"repro/internal/stencil"
)

// Cavity is a steady, incompressible, single-phase lid-driven cavity in
// D = 2 or 3 dimensions, solved with the SIMPLE algorithm (Algorithm 2
// of the paper) on a staggered MAC grid: the axis-a velocity on axis-a
// faces, pressure at cell centres. A 2D cavity is the 3D one with a
// z-extent of 1 and axis 2 inactive. Convection is first-order upwind
// (the scheme Table II budgets); the momentum systems are solved with
// BiCGStab limited to 5 iterations and the pressure correction to 20,
// the limits the paper states for MFIX. The lid is the y-top wall
// moving with unit velocity in +x; all other walls are no-slip.
//
// Every linear solve goes through a solver.Backend, so the pressure
// correction — the dominant solve — can run on the cycle-simulated
// wafer: the n³ system through Listing 1 (kernels.NewWafer3DBackend on
// an n×n fabric with Z = n), the n² one through the §IV-2 block-halo
// mapping (kernels.NewWafer2DBackend). The momentum systems stay on
// the host: their meshes have one axis of n−1, so they do not tile the
// fabric, and they start from a non-zero guess, which the wafer
// refuses. With the same backends the evolution is deterministic, and
// with a wafer backend it is bit-identical across simulation engines.
type Cavity struct {
	N int // cells per side

	AlphaU, AlphaP float64 // under-relaxation factors
	MomentumIters  int
	PressureIters  int

	// Momentum and Pressure select the linear-solve backends; both
	// default to the in-process float64 host backend.
	Momentum solver.Backend
	Pressure solver.Backend

	// PressureResiduals holds each pressure solve's residual history.
	PressureResiduals [][]float64

	sweep int     // Step calls so far, the current one included
	dim   int     // D
	ext   [3]int  // cell extents: N along active axes, 1 along an inactive one
	area  float64 // face area h^(D−1)
	cond  float64 // diffusion conductance μ·A/h = μ·h^(D−2)
	// vel[a] holds the axis-a face velocities, x fastest; dims[a] are
	// its grid extents (N+1 along the axis, the cell extents across).
	vel  [3][]float64
	dims [3][3]int
	d    [3][]float64 // pressure-correction coefficients per face
	p    []float64
}

// NewCavity allocates an n³ cavity with the paper's solver limits and
// host backends.
func NewCavity(n int, re float64) *Cavity { return newCavity(3, n, re) }

// NewCavity2D allocates an n² cavity with the paper's solver limits and
// host backends.
func NewCavity2D(n int, re float64) *Cavity { return newCavity(2, n, re) }

func newCavity(dim, n int, re float64) *Cavity {
	h, mu := 1/float64(n), 1/re
	c := &Cavity{
		N:      n,
		AlphaU: 0.7, AlphaP: 0.3,
		MomentumIters: 5, PressureIters: 20,
		Momentum: solver.Host{}, Pressure: solver.Host{},
		dim: dim, ext: [3]int{n, n, 1}, area: h, cond: mu,
	}
	if dim == 3 {
		c.ext[2] = n
		c.area, c.cond = h*h, mu*h
	}
	for a := 0; a < dim; a++ {
		c.dims[a] = c.ext
		c.dims[a][a] = n + 1
		size := c.dims[a][0] * c.dims[a][1] * c.dims[a][2]
		c.vel[a] = make([]float64, size)
		c.d[a] = make([]float64, size)
	}
	c.p = make([]float64, mesh(c.ext).N())
	return c
}

// mesh is the box of extents e in stencil's own ordering.
func mesh(e [3]int) stencil.Mesh { return stencil.Mesh{NX: e[0], NY: e[1], NZ: e[2]} }

// unit returns the axis-t unit index offset.
func unit(t int) [3]int {
	var e [3]int
	e[t] = 1
	return e
}

// add returns q + s·e.
func add(q, e [3]int, s int) [3]int {
	return [3]int{q[0] + s*e[0], q[1] + s*e[1], q[2] + s*e[2]}
}

// fidx flattens a face index for axis a.
func (c *Cavity) fidx(a int, q [3]int) int {
	d := c.dims[a]
	return (q[2]*d[1]+q[1])*d[0] + q[0]
}

// cell flattens a cell index the way the cell mesh does, so cell arrays
// align with the systems built over it.
func (c *Cavity) cell(q [3]int) int { return mesh(c.ext).Index(q[0], q[1], q[2]) }

// V returns the axis-a face velocity at (i, j) or (i, j, k).
func (c *Cavity) V(a int, idx ...int) float64 {
	var q [3]int
	copy(q[:], idx)
	return c.vel[a][c.fidx(a, q)]
}

// Residuals of one SIMPLE iteration.
type Residuals struct {
	Mass     float64 // ‖mass imbalance‖∞ before the correction
	Momentum float64 // relative change of the velocity fields
}

// Step performs one SIMPLE iteration (Algorithm 2 lines 3–10). A failed
// or non-finite linear solve stops it with an error naming the sweep
// and the equation (see solve).
func (c *Cavity) Step() (Residuals, error) {
	c.sweep++
	var prev [3][]float64
	for a := 0; a < c.dim; a++ {
		prev[a] = append([]float64(nil), c.vel[a]...)
	}
	for a := 0; a < c.dim; a++ {
		if err := c.solveMomentum(a); err != nil {
			return Residuals{}, err
		}
	}
	mass, err := c.pressureCorrection()
	if err != nil {
		return Residuals{}, err
	}
	var dd, nn float64
	for a := 0; a < c.dim; a++ {
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

// system is one linear system A·x = b in the operator kind the backends
// run for D: the 7-point Op7 in 3D and, in 2D, the 5-point stencil
// inside the 9-point Op9 that kernels.NewWafer2DBackend runs (corner
// coefficients stay zero). off[t][0] and off[t][1] are the
// coefficients of the axis-t neighbour below and above.
type system struct {
	op      stencil.Operator
	diag, b []float64
	off     [3][2][]float64
}

func (c *Cavity) newSystem(m stencil.Mesh) system {
	if c.dim == 3 {
		o := stencil.NewOp7(m)
		return system{op: o, diag: o.D, b: make([]float64, m.N()),
			off: [3][2][]float64{{o.XM, o.XP}, {o.YM, o.YP}, {o.ZM, o.ZP}}}
	}
	o := stencil.NewOp9(stencil.Mesh2D{NX: m.NX, NY: m.NY})
	return system{op: o, diag: o.C[4], b: make([]float64, m.N()),
		off: [3][2][]float64{{o.C[3], o.C[5]}, {o.C[1], o.C[7]}}}
}

// solve normalizes the system for equation eq and hands it to the
// backend for a bounded iteration count, as the paper limits the inner
// solves. A solve that fails, or returns a NaN or Inf in its solution or
// residual history, stops the sweep here: its result would otherwise be
// assembled into the next system, and the failure would surface a sweep
// later as a misleading operator error.
func (c *Cavity) solve(be solver.Backend, eq string, s system, x0 []float64, iters int) ([]float64, solver.Stats, error) {
	norm, diag := s.op.Normalized()
	x, st, err := be.Solve(norm, stencil.ScaleRHS(s.b, diag), x0, solver.Options{
		MaxIter: iters, Tol: 1e-12, RecordHistory: true,
	})
	if err == solver.ErrZeroRHS {
		return x0, st, nil
	}
	if err == nil {
		err = nonFinite(x, st.History)
	}
	if err != nil {
		return nil, st, fmt.Errorf("mfix: sweep %d: %s: %w", c.sweep, eq, err)
	}
	return x, st, nil
}

// nonFinite reports the first NaN or Inf of a solve's residual history,
// or failing that of its solution.
func nonFinite(x, hist []float64) error {
	for i, r := range hist {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("non-finite residual %g at iteration %d", r, i+1)
		}
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite solution %g at unknown %d", v, i)
		}
	}
	return nil
}

// forEach visits the cells q ≥ lo, x fastest.
func (c *Cavity) forEach(lo [3]int, fn func(q [3]int)) {
	for k := lo[2]; k < c.ext[2]; k++ {
		for j := lo[1]; j < c.ext[1]; j++ {
			for i := lo[0]; i < c.ext[0]; i++ {
				fn([3]int{i, j, k})
			}
		}
	}
}

// forEachUnknown visits every interior axis-a face q. Its index in the
// momentum mesh, which is zero-based along the unknown axis, is
// add(q, unit(a), -1).
func (c *Cavity) forEachUnknown(a int, fn func(q [3]int)) {
	var lo [3]int
	lo[a] = 1
	c.forEach(lo, fn)
}

// solveMomentum assembles and partially solves the axis-a momentum
// system over the interior axis-a faces: first-order upwind convection,
// central diffusion, half-cell wall conductance, pressure-gradient
// source, and implicit under-relaxation.
func (c *Cavity) solveMomentum(a int) error {
	n, area, cond := c.N, c.area, c.cond
	e := c.ext
	e[a] = n - 1
	m := mesh(e)
	s := c.newSystem(m)
	x0 := make([]float64, m.N())
	ea := unit(a)

	c.forEachUnknown(a, func(q [3]int) {
		qm := add(q, ea, -1) // the cell on face q's minus side, and q's index in m
		r := m.Index(qm[0], qm[1], qm[2])
		fa := c.fidx(a, q)
		var sumA, netF, rhs float64
		for t := 0; t < c.dim; t++ {
			var fPlus, fMinus float64
			if t == a {
				fPlus = area * 0.5 * (c.vel[a][c.fidx(a, add(q, ea, 1))] + c.vel[a][fa])
				fMinus = area * 0.5 * (c.vel[a][fa] + c.vel[a][c.fidx(a, qm)])
			} else {
				pp := add(q, unit(t), 1)
				fPlus = area * 0.5 * (c.vel[t][c.fidx(t, pp)] + c.vel[t][c.fidx(t, add(pp, ea, -1))])
				fMinus = area * 0.5 * (c.vel[t][c.fidx(t, q)] + c.vel[t][c.fidx(t, qm)])
			}
			netF += fPlus - fMinus
			aPlus := cond + math.Max(-fPlus, 0)
			aMinus := cond + math.Max(fMinus, 0)

			// Beyond the last unknown on either side lies a boundary face
			// of velocity zero (t == a) or a wall (t != a), whose
			// half-cell conductance doubles the diffusion term.
			if q[t]+1 < n {
				s.off[t][1][r] = -aPlus
			} else if t != a {
				aPlus += cond
				if a == 0 && t == 1 {
					rhs += aPlus // the moving lid (+y wall, u component)
				}
			}
			sumA += aPlus
			lo := 0
			if t == a {
				lo = 1
			}
			if q[t] > lo {
				s.off[t][0][r] = -aMinus
			} else if t != a {
				aMinus += cond // stationary wall
			}
			sumA += aMinus
		}
		// Pressure gradient between the two adjacent cells.
		rhs += (c.p[c.cell(qm)] - c.p[c.cell(q)]) * area

		aP := (sumA + netF) / c.AlphaU
		rhs += (1 - c.AlphaU) * aP * c.vel[a][fa]
		s.diag[r] = aP
		s.b[r] = rhs
		x0[r] = c.vel[a][fa]
		c.d[a][fa] = area / aP
	})

	sol, _, err := c.solve(c.Momentum, fmt.Sprintf("momentum axis %d", a), s, x0, c.MomentumIters)
	if err != nil {
		return err
	}
	c.forEachUnknown(a, func(q [3]int) {
		qm := add(q, ea, -1)
		c.vel[a][c.fidx(a, q)] = sol[m.Index(qm[0], qm[1], qm[2])]
	})
	return nil
}

// imbalance is cell q's mass inflow minus outflow.
func (c *Cavity) imbalance(q [3]int) float64 {
	var imb float64
	for t := 0; t < c.dim; t++ {
		imb += c.area * (c.vel[t][c.fidx(t, q)] - c.vel[t][c.fidx(t, add(q, unit(t), 1))])
	}
	return imb
}

// pressureCorrection assembles the continuity (pressure-correction)
// system on the cell mesh — the system a wafer backend solves — solves
// it, corrects velocities and pressure, and returns the pre-correction
// mass imbalance (∞-norm).
func (c *Cavity) pressureCorrection() (float64, error) {
	s := c.newSystem(mesh(c.ext))
	maxImb := 0.0
	c.forEach([3]int{}, func(q [3]int) {
		r := c.cell(q)
		var sumA float64
		for t := 0; t < c.dim; t++ {
			aPlus := c.area * c.d[t][c.fidx(t, add(q, unit(t), 1))] // zero at walls (never set)
			aMinus := c.area * c.d[t][c.fidx(t, q)]
			s.off[t][1][r] = -aPlus
			s.off[t][0][r] = -aMinus
			sumA += aPlus + aMinus
		}
		s.diag[r] = sumA
		s.b[r] = c.imbalance(q)
		maxImb = math.Max(maxImb, math.Abs(s.b[r]))
	})
	// The pure-Neumann system is singular: pin the first cell.
	s.diag[0], s.b[0] = 1, 0
	for t := 0; t < c.dim; t++ {
		s.off[t][0][0], s.off[t][1][0] = 0, 0
	}

	pc, st, err := c.solve(c.Pressure, "pressure", s, make([]float64, len(s.b)), c.PressureIters)
	if err != nil {
		return maxImb, err
	}
	c.PressureResiduals = append(c.PressureResiduals, st.History)

	// Correct faces and pressure.
	for a := 0; a < c.dim; a++ {
		c.forEachUnknown(a, func(q [3]int) {
			fi := c.fidx(a, q)
			c.vel[a][fi] += c.d[a][fi] * (pc[c.cell(add(q, unit(a), -1))] - pc[c.cell(q)])
		})
	}
	for i := range c.p {
		c.p[i] += c.AlphaP * pc[i]
	}
	return maxImb, nil
}

// CenterlineU samples u along the vertical centreline (x = 0.5, and
// z = 0.5 in 3D), returning one value per cell row from bottom to lid —
// the standard cavity validation profile (Ghia et al.).
func (c *Cavity) CenterlineU() []float64 {
	out := make([]float64, c.N)
	for j := range out {
		out[j] = c.V(0, c.N/2, j, c.ext[2]/2)
	}
	return out
}
