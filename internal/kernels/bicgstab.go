package kernels

import (
	"fmt"

	"repro/internal/fabric"
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

// add accumulates q into p (WaferBackend's cumulative counters).
func (p *PhaseCycles) add(q PhaseCycles) {
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

// WaferSolver runs the paper's solver on one simulated wafer: the one
// solver type behind BiCGStabWSE, BiCGStabStarWSE and BiCGStab2DWSE,
// which differ only in the SpMV program and tile layout they hand the
// shared BiCGStabEngine (wsebicg.go) — the Algorithm 1 control flow
// every wafer solver, multiwafer's included, reuses. Op is the operator
// form the program's LoadCoeff takes.
type WaferSolver[Op any] struct {
	M *wse.Machine

	prog TileProgram
	load func(Op) error
	eng  *BiCGStabEngine
}

// newWaferSolver puts prog, an SpMV program on m with perTile-element
// tile vectors laid out by index, under a BiCGStabEngine whose
// AllReduce takes the six colors from arBase; load is prog's
// coefficient reload.
func newWaferSolver[Op any](m *wse.Machine, prog TileProgram, load func(Op) error, perTile int,
	arBase fabric.Color, index func(part, tile, elem int) int) (*WaferSolver[Op], error) {
	machines := []*wse.Machine{m}
	eng, err := NewBiCGStabEngine(Substrate{
		Machines: machines, PerTile: perTile, ARBase: arBase,
		SpMV:  ProgramSpMV(machines, []TileProgram{prog}, perTile, nil),
		Index: index,
	})
	if err != nil {
		return nil, err
	}
	return &WaferSolver[Op]{M: m, prog: prog, load: load, eng: eng}, nil
}

// LoadCoeff swaps the stencil operator of a built solver without
// rebuilding the machine program: routing, task structure, memory
// layout and the solver engine all stay, only the coefficient columns
// are rewritten, and the fabric's arbitration restarts from its
// power-on state (fabric.RestartArbitration). Solve re-initializes the
// solver vectors on every call, so a warm solver serves an arbitrary
// sequence of solves, each exactly as a freshly built machine would run
// it — build once, LoadCoeff per job, the service layer's machine-cache
// contract. An operator for another mesh (or stencil) is refused with
// the program untouched. The machine must be between solves (its
// fabric quiescent), as a finished or canceled solve leaves it.
func (s *WaferSolver[Op]) LoadCoeff(op Op) error {
	if err := s.load(op); err != nil {
		return err
	}
	s.M.Fab.RestartArbitration()
	return nil
}

// Solve runs BiCGStab for the right-hand side b (mesh-indexed, fp16) with
// a zero initial guess and returns the solution with solve statistics.
func (s *WaferSolver[Op]) Solve(bvec []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
	return s.eng.Solve(bvec, opts)
}

// Pristine drains the machine to idle (program construction leaves a
// few cores spuriously queued) and captures its just-built
// architectural state, for Reset to rewind to. A warm solver does not
// need it — LoadCoeff already restarts what a solve leaves behind that
// the next one could see — so the pair remains as the benchmark
// ladder's timing of a whole-machine capture and restore.
func (s *WaferSolver[Op]) Pristine() (*wse.Snapshot, error) {
	if _, err := s.M.RunUntil(s.M.AllIdle, 1<<20); err != nil {
		return nil, fmt.Errorf("kernels: draining machine for pristine capture: %w", err)
	}
	return s.M.Snapshot()
}

// Reset rewinds the machine to a Pristine capture (see Pristine).
func (s *WaferSolver[Op]) Reset(snap *wse.Snapshot) error { return s.M.Restore(snap) }

// BiCGStabWSE is the wafer solver over the paper's Listing 1 FIFO
// pipeline (SpMV3D): the mesh's X×Y extent is mapped across the fabric,
// each tile holds the Z-columns of the six matrix diagonals and the
// solver vectors in fp16, dots use the mixed-precision inner-product
// instruction with partials combined by the Figure 6 AllReduce at 32
// bits, and every vector update runs as a SIMD tensor instruction. The
// deterministic halo-exchange rendering of the same 7-point operator is
// the star solver at stencilc.Spec7Point (BiCGStabStarWSE over
// stencil.HalfFromOp7) — bit-identical to the host chunked-mixed and
// multi-wafer backends, where this pipeline's accumulation order is
// timing-dependent.
type BiCGStabWSE = WaferSolver[*stencil.Op7Half]

// NewBiCGStabWSE builds the solver for a unit-diagonal operator whose
// X×Y extent matches the machine fabric.
func NewBiCGStabWSE(m *wse.Machine, op *stencil.Op7Half) (*BiCGStabWSE, error) {
	spmv, err := NewSpMV3D(m, op)
	if err != nil {
		return nil, err
	}
	return newWaferSolver(m, spmv, spmv.loadCoeff, op.M.NZ, NumStencilColors, columnIndex(m, op.M))
}

// columnIndex is the Substrate.Index of a one-machine Z-column layout
// (the 3D mappings): tile (x, y) holds mesh column (x, y), element z.
func columnIndex(m *wse.Machine, mesh stencil.Mesh) func(part, tile, elem int) int {
	return func(_, tile, elem int) int {
		c := m.Tiles[tile].Coord
		return mesh.Index(c.X, c.Y, elem)
	}
}

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
	// summation would have perturbed. The fabric's tree sum follows the
	// routers' arbitration rotation, which LoadCoeff restarts, so a warm
	// machine reports a cold machine's drift, bit for bit.
	MaxARDrift float64
}

// WSEOptions controls the wafer solve: the one options struct of the
// solver seam, read directly by the solve loop (no field is copied on
// the way in). Of its fields the loop ignores RecordHistory —
// WSEStats.History is always kept — and TrueResidual, which needs a
// host-resident iterate; MaxIter 0 means 100.
type WSEOptions = solver.Options

// SolutionResidual recomputes ‖b − A x‖/‖b‖ in float64 against the
// original operator, for accuracy verification.
func SolutionResidual(op *stencil.Op7, x []fp16.Float16, b []float64) float64 {
	xf := fp16.ToFloat64Slice(x)
	return op.ResidualNorm(xf, b) / stencil.Norm2(b)
}

// NewWafer3DBackend wraps mach as the solver.Backend of the Listing 1
// pipeline for 7-point systems on a mesh whose X×Y extent equals the
// fabric. Like every wafer backend it builds the program on the first
// Solve and reloads coefficients with LoadCoeff alone on later ones: the
// pipeline's FIFO accumulation order is timing-dependent, and the
// arbitration restart in LoadCoeff is what makes a warm solve reproduce
// a cold machine's bits (TestWarmSolverReuseBitIdentical). The
// right-hand side is converted to fp16 unscaled.
func NewWafer3DBackend(mach *wse.Machine) *WaferBackend {
	lower := func(op *stencil.Op7) (*stencil.Op7Half, error) { return stencil.NewOp7Half(op), nil }
	return NewBackend("wse", false, mach.Close, lower, func(h *stencil.Op7Half) (*BiCGStabWSE, error) {
		return NewBiCGStabWSE(mach, h)
	})
}
