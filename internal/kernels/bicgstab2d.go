package kernels

import (
	"repro/internal/fp16"
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// BiCGStab2DWSE runs BiCGStab on the simulated wafer over the 2D
// block-halo mapping: each tile owns a b×b block of the mesh, the nine
// coefficient diagonals for it, and b²-element solver vectors; the SpMV
// is the two-round halo-exchange program of the paper's §IV-2 mapping
// (the 9-point box spec compiled by stencilc: a stencilc.Program2D, the
// cycle-simulated form of the dataflow stencilc.Reference2D replays on
// the host), and the Algorithm 1 control flow — mixed-precision dots,
// Figure 6 AllReduces, SIMD vector updates — is the shared
// BiCGStabEngine.
type BiCGStab2DWSE struct {
	M    *wse.Machine
	Mesh stencil.Mesh2D
	B    int

	spmv *stencilc.Program2D
	eng  *BiCGStabEngine
}

// NewBiCGStab2DWSE builds the solver for a unit-centre 9-point operator
// whose mesh tiles the machine fabric with b×b blocks. The exchange uses
// colors 0–3 and the AllReduce colors 4–9.
func NewBiCGStab2DWSE(m *wse.Machine, op *stencil.Op9, b int) (*BiCGStab2DWSE, error) {
	spmv, err := stencilc.Compile2D(m, stencilc.Spec9Point(), op, b, 0)
	if err != nil {
		return nil, err
	}
	s := &BiCGStab2DWSE{M: m, Mesh: op.M, B: b, spmv: spmv}
	machines := []*wse.Machine{m}
	s.eng, err = NewBiCGStabEngine(Substrate{
		Machines: machines, PerTile: b * b, ARBase: stencilc.NumExchangeColors,
		SpMV:  ProgramSpMV(machines, []TileProgram{spmv}, b*b, nil),
		Index: s.index,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// loadCoeff swaps in a new operator on the same mesh (the SIMPLE outer
// loop re-assembles the pressure system every iteration); any other is
// refused with the program untouched.
func (s *BiCGStab2DWSE) loadCoeff(op *stencil.Op9) error { return s.spmv.LoadCoeff(op) }

// index maps (tile, element) of the one machine to the mesh-global
// vector position: block row-major within the tile's b×b block.
func (s *BiCGStab2DWSE) index(_, tile, elem int) int {
	c := s.M.Tiles[tile].Coord
	b := s.B
	return s.Mesh.Index(c.X*b+elem%b, c.Y*b+elem/b)
}

// Solve runs BiCGStab for the right-hand side b (mesh row-major, fp16)
// with a zero initial guess.
func (s *BiCGStab2DWSE) Solve(bvec []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
	return s.eng.Solve(bvec, opts)
}

// NewWafer2DBackend wraps mach as the solver.Backend of the 2D
// block-halo program with b×b blocks — the pressure-correction backend
// of the cavity-on-wafer experiment. The mesh must tile the machine's
// fabric with that block size. The right-hand side is pre-scaled by a
// power of two (SolveFloat64), which keeps the fp16-stored iterate clear
// of the subnormal range for the small mass-imbalance values SIMPLE
// produces.
func NewWafer2DBackend(mach *wse.Machine, b int) *WaferBackend {
	var prog *BiCGStab2DWSE
	return &WaferBackend{mach: mach, prescale: true, load: func(a stencil.Operator) (_ SolveFunc, err error) {
		op, ok := a.(*stencil.Op9)
		if !ok {
			return nil, errCannotLower(a, "2D block-halo")
		}
		if prog != nil {
			return prog.Solve, prog.loadCoeff(op)
		}
		if prog, err = NewBiCGStab2DWSE(mach, op, b); err != nil {
			return nil, err
		}
		return prog.Solve, nil
	}}
}
