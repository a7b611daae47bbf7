package kernels

import (
	"fmt"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// PhaseCycles is the one cycle account, from the solve loop to the
// service's JSON: one BiCGStab iteration's cycles broken into the
// paper's kernel classes plus the two inter-wafer costs. Simulated
// phases (SpMV, Dot, AllReduce, Axpy) charge the maximum over the
// substrate's machines — they run in lockstep and the slowest gates the
// phase; EdgeIO and Combine are the multi-wafer interconnect model's
// seconds converted to cycles at the wafer clock, and stay zero on one
// wafer.
type PhaseCycles struct {
	SpMV      int64 `json:"spmv"`              // two applications
	EdgeIO    int64 `json:"edge_io,omitempty"` // inter-wafer halo transfers feeding those SpMVs
	Dot       int64 `json:"dot"`               // four local mixed-precision dots
	AllReduce int64 `json:"allreduce"`         // four blocking on-wafer scalar reductions
	Combine   int64 `json:"combine,omitempty"` // four host-side exact combines + scalar re-broadcast
	Axpy      int64 `json:"axpy"`              // six AXPY-class vector updates
}

// Total returns the cycle sum across all phases.
func (p PhaseCycles) Total() int64 {
	return p.SpMV + p.EdgeIO + p.Dot + p.AllReduce + p.Combine + p.Axpy
}

// Communication returns the cycles spent off the local tile datapaths:
// the on-wafer reduction plus everything that crossed a wafer edge.
func (p PhaseCycles) Communication() int64 { return p.EdgeIO + p.AllReduce + p.Combine }

// Add accumulates q into p (the backend adapters' cumulative counters).
func (p *PhaseCycles) Add(q PhaseCycles) {
	p.SpMV += q.SpMV
	p.EdgeIO += q.EdgeIO
	p.Dot += q.Dot
	p.AllReduce += q.AllReduce
	p.Combine += q.Combine
	p.Axpy += q.Axpy
}

// dividedBy returns the per-iteration mean of an account accumulated
// over it iterations.
func (p PhaseCycles) dividedBy(it int64) PhaseCycles {
	return PhaseCycles{SpMV: p.SpMV / it, EdgeIO: p.EdgeIO / it, Dot: p.Dot / it,
		AllReduce: p.AllReduce / it, Combine: p.Combine / it, Axpy: p.Axpy / it}
}

// BiCGStabWSE runs the paper's solver on the simulated wafer: the mesh's
// X×Y extent is mapped across the fabric, each tile holds the Z-columns
// of the six matrix diagonals and the solver vectors in fp16, dots use
// the mixed-precision inner-product instruction with partials combined by
// the Figure 6 AllReduce at 32 bits, and every vector update runs as a
// SIMD tensor instruction. The SpMV is the paper's Listing 1 FIFO
// pipeline (SpMV3D); the Algorithm 1 control flow lives in the shared
// BiCGStabEngine (wsebicg.go), which every other wafer solver reuses
// with a different SpMV and tile layout. The deterministic
// halo-exchange rendering of the same 7-point operator is the star
// solver at stencilc.Spec7Point (BiCGStabStarWSE over
// stencil.HalfFromOp7) — bit-identical to the host, rank-parallel and
// multi-wafer backends, where this pipeline's accumulation order is
// timing-dependent.
type BiCGStabWSE struct {
	M    *wse.Machine
	Mesh stencil.Mesh

	spmv *SpMV3D
	eng  *BiCGStabEngine
}

// NewBiCGStabWSE builds the solver for a unit-diagonal operator whose
// X×Y extent matches the machine fabric.
func NewBiCGStabWSE(m *wse.Machine, op *stencil.Op7Half) (*BiCGStabWSE, error) {
	spmv, err := NewSpMV3D(m, op)
	if err != nil {
		return nil, err
	}
	b := &BiCGStabWSE{M: m, Mesh: op.M, spmv: spmv}
	machines := []*wse.Machine{m}
	b.eng, err = NewBiCGStabEngine(Substrate{
		Machines: machines, PerTile: op.M.NZ, ARBase: NumStencilColors,
		SpMV:  ProgramSpMV(machines, []TileProgram{spmv}, op.M.NZ, nil),
		Index: columnIndex(m, op.M),
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// columnIndex is the Substrate.Index of a one-machine Z-column layout
// (the 3D mappings): tile (x, y) holds mesh column (x, y), element z.
func columnIndex(m *wse.Machine, mesh stencil.Mesh) func(part, tile, elem int) int {
	return func(_, tile, elem int) int {
		c := m.Tiles[tile].Coord
		return mesh.Index(c.X, c.Y, elem)
	}
}

// LoadCoeff swaps the stencil operator of a built solver without
// rebuilding the machine program: routing, task structure, memory
// layout and the solver engine all stay, only the coefficient columns
// are rewritten. Solve re-initializes the solver vectors on every call,
// so a warm solver serves an arbitrary sequence of solves — build once,
// LoadCoeff per job, the service layer's machine-cache contract. The
// new operator's mesh must match the one the solver was built for.
func (b *BiCGStabWSE) LoadCoeff(op *stencil.Op7Half) error { return b.spmv.LoadCoeff(op) }

// Pristine drains the machine to idle (program construction leaves a
// few cores spuriously queued) and captures its just-built
// architectural state. Rewinding to that capture with Reset before each
// solve makes every solve start from the cold-machine state, so the
// Listing 1 FIFO pipeline — whose accumulation order is
// timing-dependent and therefore sensitive to leftover counters from a
// previous solve — reproduces a fresh machine's bits exactly.
func (b *BiCGStabWSE) Pristine() (*wse.Snapshot, error) {
	if _, err := b.M.RunUntil(b.M.AllIdle, 1<<20); err != nil {
		return nil, fmt.Errorf("kernels: draining machine for pristine capture: %w", err)
	}
	return b.M.Snapshot()
}

// Reset rewinds the machine to a Pristine capture (see Pristine).
func (b *BiCGStabWSE) Reset(s *wse.Snapshot) error { return b.M.Restore(s) }

// WSEStats reports a wafer solve, on one machine or a grid of them.
type WSEStats struct {
	// Wafers is the number of machines the substrate ran on.
	Wafers     int
	Iterations int
	Converged  bool
	Breakdown  string
	// History is the per-iteration relative residual ‖r‖₂/‖b‖₂, diagnosed
	// in float64 from the fp16 recurrence residual in canonical global
	// order — bit-identical across wafer counts and engines.
	History []float64
	// Cycles accumulates per-phase cycle counts across all iterations.
	// The setup ‖b‖² dot is excluded (see SetupCycles).
	Cycles PhaseCycles
	// PerIteration is the mean cycle breakdown per iteration.
	PerIteration PhaseCycles
	// SetupCycles is the one-time ‖b‖² dot + AllReduce (+ combine) before
	// the first iteration, kept out of Cycles/PerIteration so
	// per-iteration numbers match the paper's steady-state model.
	SetupCycles int64
	// MaxARDrift is the largest observed |fabric AllReduce − exact sum|
	// across all dots, as a fraction of the paper's AllReduce error-model
	// bound (≤ 1 means every fabric reduction stayed within model). The
	// cross-check runs per wafer on every substrate — each machine's
	// tree-order value against the exact sum of that machine's own
	// partials — and a reduction beyond the bound fails the solve. The
	// solver consumes the exact sum; this measures what tree-order
	// summation would have perturbed. It is a per-machine-history
	// diagnostic, outside the warm ≡ cold contract: a backend that keeps
	// router arbitration rotation across solves (star, 2D, multiwafer)
	// can report a different drift warm than cold (0.0906 vs 0.0780 in
	// PR 18's finding) while x, History and every cycle count are equal.
	MaxARDrift float64
}

// SolverStats is the solve outcome in the shape the solver.Backend
// seam returns; the residual history is attached only on request.
func (st WSEStats) SolverStats(recordHistory bool) solver.Stats {
	out := solver.Stats{Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown}
	if n := len(st.History); n > 0 {
		out.FinalResidual = st.History[n-1]
	}
	if recordHistory {
		out.History = st.History
	}
	return out
}

// WSEOptions controls the wafer solve: the one options struct of the
// solver seam, read directly by the solve loop (no field is copied on
// the way in). Of its fields the loop ignores RecordHistory —
// WSEStats.History is always kept — and TrueResidual, which needs a
// host-resident iterate; MaxIter 0 means 100.
type WSEOptions = solver.Options

// Solve runs BiCGStab for the right-hand side b (mesh-indexed, fp16) with
// a zero initial guess and returns the solution with solve statistics.
func (w *BiCGStabWSE) Solve(bvec []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
	return w.eng.Solve(bvec, opts)
}

// SolutionResidual recomputes ‖b − A x‖/‖b‖ in float64 against the
// original operator, for accuracy verification.
func SolutionResidual(op *stencil.Op7, x []fp16.Float16, b []float64) float64 {
	xf := fp16.ToFloat64Slice(x)
	return op.ResidualNorm(xf, b) / stencil.Norm2(b)
}

// NewWafer3DBackend wraps mach as the solver.Backend of the Listing 1
// pipeline for 7-point systems on a mesh whose X×Y extent equals the
// fabric. Building the program also captures the machine's pristine
// state, and every later Solve rewinds to it before loading its
// coefficients: the pipeline's FIFO accumulation order is
// timing-dependent, and a warm solve must reproduce a cold machine's
// bits (TestWarmSolverReuseBitIdentical). The right-hand side is
// converted to fp16 unscaled.
func NewWafer3DBackend(mach *wse.Machine) *WaferBackend {
	var prog *BiCGStabWSE
	var pristine *wse.Snapshot
	return &WaferBackend{mach: mach, load: func(a stencil.Operator) (_ SolveFunc, err error) {
		op, ok := a.(*stencil.Op7)
		if !ok {
			return nil, errCannotLower(a, "Listing 1")
		}
		half := stencil.NewOp7Half(op)
		if prog != nil {
			if err = prog.Reset(pristine); err == nil {
				err = prog.LoadCoeff(half)
			}
			return prog.Solve, err
		}
		fresh, err := NewBiCGStabWSE(mach, half)
		if err != nil {
			return nil, err
		}
		if pristine, err = fresh.Pristine(); err != nil {
			return nil, err
		}
		prog = fresh
		return prog.Solve, nil
	}}
}
