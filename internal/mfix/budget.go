// Package mfix reproduces the paper's CFD study (§VI): the SIMPLE
// pressure-velocity coupling algorithm of the NETL MFIX code, its Table II
// per-meshpoint cycle budget for the steps outside the linear solver, and
// the projected CS-1 performance (80–125 timesteps/s on a 600³ mesh,
// >200× a 16,384-core Joule partition). A functional staggered-grid
// SIMPLE solver for the lid-driven cavity — the problem used for the
// Joule baseline — lives in simple.go, written once for two and three
// dimensions, with its pressure solve on any solver.Backend.
package mfix

import (
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// OpRange is a [min, max] cycle range.
type OpRange struct{ Min, Max float64 }

// StepBudget is one row of Table II: cycles per meshpoint for a SIMPLE
// step, excluding the solver, grouped into vector merges, floating point
// ops, square roots, divides, and neighbour transport (xᵀ).
type StepBudget struct {
	Step                          string
	Merge, FLOP, Sqrt, Div, Trans OpRange
	Total                         OpRange
}

// TableII returns the paper's Table II, cycles per meshpoint for SIMPLE
// excluding the solver, derived from first-order upwinding of the single
// phase compressible viscous equations.
func TableII() []StepBudget {
	return []StepBudget{
		{Step: "Initialization",
			Merge: OpRange{2, 9}, FLOP: OpRange{35, 47}, Sqrt: OpRange{0, 0},
			Div: OpRange{0, 0}, Trans: OpRange{8, 8}, Total: OpRange{45, 64}},
		{Step: "Momentum",
			Merge: OpRange{25, 153}, FLOP: OpRange{18, 25}, Sqrt: OpRange{13, 13},
			Div: OpRange{15, 16}, Trans: OpRange{6, 6}, Total: OpRange{79, 213}},
		{Step: "Continuity",
			Merge: OpRange{8, 45}, FLOP: OpRange{13, 18}, Sqrt: OpRange{0, 0},
			Div: OpRange{15, 16}, Trans: OpRange{2, 2}, Total: OpRange{37, 81}},
		{Step: "Field Update",
			Merge: OpRange{0, 0}, FLOP: OpRange{3, 5}, Sqrt: OpRange{0, 0},
			Div: OpRange{0, 0}, Trans: OpRange{1, 1}, Total: OpRange{4, 6}},
	}
}

// SimpleParams describes the outer-loop structure of Algorithm 2 as the
// paper budgets it: 5–20 SIMPLE iterations per timestep, the linear
// solver limited to 5 iterations for the three transport (momentum)
// equations and 20 for continuity.
type SimpleParams struct {
	SimpleIters     int
	MomentumSolves  int // one per velocity component
	MomentumIters   int
	ContinuityIters int
}

// PaperSimpleParams is the configuration of the §VI-A projection.
func PaperSimpleParams() SimpleParams {
	return SimpleParams{SimpleIters: 15, MomentumSolves: 3, MomentumIters: 5, ContinuityIters: 20}
}

// SolverItersPerStep returns the BiCGStab iterations one timestep costs.
func (p SimpleParams) SolverItersPerStep() int {
	return p.SimpleIters * (p.MomentumSolves*p.MomentumIters + p.ContinuityIters)
}

// Projection is the modelled CS-1 timestep rate.
type Projection struct {
	// FormationCyclesPerZPoint is the Table II (non-solver) work per
	// z-meshpoint per timestep.
	FormationCyclesPerZPoint OpRange
	// SolverCyclesPerZPoint is the BiCGStab work per z-meshpoint per
	// timestep, from the calibrated wafer model.
	SolverCyclesPerZPoint float64
	// StepSeconds and StepsPerSecond bound the timestep rate.
	StepSeconds    OpRange
	StepsPerSecond OpRange
}

// ProjectCS1 composes Table II with the calibrated BiCGStab model for an
// X×Y×Z problem on the CS-1 (§VI-A: "between 80 and 125 timesteps per
// second" for 600³ and 15 SIMPLE iterations). The solver is charged at
// the measured headline rate — cycles per meshpoint per iteration at the
// §V configuration (Z = 1536) — which is how the paper's estimate
// composes (its 80–125 band brackets exactly Table II's formation range
// plus 525 solver iterations at ~20 cycles/meshpoint).
func ProjectCS1(m perfmodel.IterModel, x, y, z int, sp SimpleParams) Projection {
	w := perfmodel.CS1()
	rows := TableII()
	var form OpRange
	// Initialization once per step; momentum ×3, continuity, field update
	// once per SIMPLE iteration.
	form.Min = rows[0].Total.Min + float64(sp.SimpleIters)*
		(3*rows[1].Total.Min+rows[2].Total.Min+rows[3].Total.Min)
	form.Max = rows[0].Total.Max + float64(sp.SimpleIters)*
		(3*rows[1].Total.Max+rows[2].Total.Max+rows[3].Total.Max)

	headline, _, _ := perfmodel.Headline()
	perPoint := m.IterationCycles(w, headline.Z).Total() / float64(headline.Z)
	solverPerZ := perPoint * float64(sp.SolverItersPerStep())

	stepMin := (form.Min*float64(z) + solverPerZ*float64(z)) / w.ClockHz
	stepMax := (form.Max*float64(z) + solverPerZ*float64(z)) / w.ClockHz
	return Projection{
		FormationCyclesPerZPoint: form,
		SolverCyclesPerZPoint:    solverPerZ,
		StepSeconds:              OpRange{stepMin, stepMax},
		StepsPerSecond:           OpRange{1 / stepMax, 1 / stepMin},
	}
}

// JouleTimestepSeconds estimates one MFIX timestep on the cluster at the
// given core count: the same solver iteration structure charged at the
// cluster's per-iteration time (formation is bandwidth-bound too and
// folded into the same sweeps; the solver dominates).
func JouleTimestepSeconds(cfg cluster.Config, mesh stencil.Mesh, cores int, sp SimpleParams) float64 {
	perIter := cfg.IterationTime(mesh, cores).Total()
	// Formation: Table II charges ~0.3–0.8 solver-iteration equivalents
	// per SIMPLE iteration; charge half an iteration per SIMPLE sweep.
	formation := float64(sp.SimpleIters) * 0.5 * perIter
	return float64(sp.SolverItersPerStep())*perIter + formation
}
