package kernels

import (
	"fmt"

	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// BiCGStabStarWSE runs BiCGStab on the simulated wafer for an arbitrary
// star stencil: the SpMV is a stencil-compiled relay-exchange program
// (stencilc.Program3D) applying a unit-diagonal star operator of
// per-axis widths up to stencilc.MaxWidth — the 25-point seismic
// stencil, the 7-point heat step, and everything between — and the
// Algorithm 1 control flow (mixed-precision dots, Figure 6 AllReduces,
// SIMD vector updates) is the shared BiCGStabEngine. At
// stencilc.Spec7Point over stencil.HalfFromOp7 it is the deterministic
// halo-exchange rendering of the 7-point solve — the same program each
// multiwafer part runs — whose residual history is bit-identical to the
// host mixed-precision solver, the rank-parallel cluster solver and the
// multi-wafer backend (core.TestAllBackendsBitIdentical).
type BiCGStabStarWSE struct {
	M    *wse.Machine
	Mesh stencil.Mesh
	Spec stencilc.Spec

	prog *stencilc.Program3D
	eng  *BiCGStabEngine
}

// NewBiCGStabStarWSE builds the solver for a unit-diagonal star
// operator whose X×Y extent equals the machine fabric (one Z column per
// tile; the solve's boundary handling relies on never-written halos
// staying zero, which is the Dirichlet condition only on a full-mesh
// wafer). The exchange uses the stencil compiler's four directional
// colors and the AllReduce the six after them.
func NewBiCGStabStarWSE(m *wse.Machine, spec stencilc.Spec, op *stencil.OpStarHalf) (*BiCGStabStarWSE, error) {
	if op.M.NX != m.Cfg.FabricW || op.M.NY != m.Cfg.FabricH {
		return nil, fmt.Errorf("kernels: star solve requires the mesh extent %d×%d to equal the fabric %d×%d",
			op.M.NX, op.M.NY, m.Cfg.FabricW, m.Cfg.FabricH)
	}
	prog, err := stencilc.Compile3D(m, spec, op, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	s := &BiCGStabStarWSE{M: m, Mesh: op.M, Spec: spec, prog: prog}
	machines := []*wse.Machine{m}
	s.eng, err = NewBiCGStabEngine(Substrate{
		Machines: machines, PerTile: op.M.NZ, ARBase: stencilc.NumExchangeColors,
		SpMV:  ProgramSpMV(machines, []TileProgram{prog}, op.M.NZ, nil),
		Index: columnIndex(m, op.M),
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// LoadCoeff swaps in a new operator on the same mesh and widths;
// routing, memory layout and task structure are reused. An operator
// for another mesh or stencil is refused with the program untouched.
func (s *BiCGStabStarWSE) LoadCoeff(op *stencil.OpStarHalf) error { return s.prog.LoadCoeff(op) }

// Solve runs BiCGStab for the right-hand side b (mesh-indexed, fp16)
// with a zero initial guess.
func (s *BiCGStabStarWSE) Solve(bvec []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
	return s.eng.Solve(bvec, opts)
}

// NewWaferStarBackend wraps mach as the solver.Backend of the
// stencil-compiled program for spec: star systems on a mesh whose X×Y
// extent equals the fabric. The compiled program's fixed order is
// reuse-stable with LoadCoeff alone. The right-hand side is pre-scaled
// by a power of two (SolveFloat64), exactly as the 2D backend does.
func NewWaferStarBackend(mach *wse.Machine, spec stencilc.Spec) *WaferBackend {
	var prog *BiCGStabStarWSE
	return &WaferBackend{mach: mach, prescale: true, load: func(a stencil.Operator) (_ SolveFunc, err error) {
		op, ok := a.(*stencil.OpStar)
		if !ok {
			return nil, errCannotLower(a, "star")
		}
		// Reject non-lowerable specs before building the fp16 half
		// operator: the host references assert Dirichlet, and the caller
		// deserves the compiler's *UnsupportedError rather than that panic.
		if err := spec.Lowerable(); err != nil {
			return nil, err
		}
		half := stencil.NewOpStarHalf(op)
		if prog != nil {
			return prog.Solve, prog.LoadCoeff(half)
		}
		if prog, err = NewBiCGStabStarWSE(mach, spec, half); err != nil {
			return nil, err
		}
		return prog.Solve, nil
	}}
}
