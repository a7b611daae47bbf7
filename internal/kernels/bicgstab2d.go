package kernels

import (
	"fmt"

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
// cycle-simulated form of the dataflow SpMV2D renders functionally),
// and the Algorithm 1 control flow — mixed-precision dots, Figure 6 AllReduces,
// SIMD vector updates — is the shared BiCGStabEngine.
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
	s.eng, err = newWSEBiCG(m, b*b, stencilc.NumExchangeColors, s.runSpMV, s.index)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// LoadCoeff swaps in a new operator on the same mesh (the SIMPLE outer
// loop re-assembles the pressure system every iteration).
func (s *BiCGStab2DWSE) LoadCoeff(op *stencil.Op9) { s.spmv.LoadCoeff(op) }

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

// runSpMV copies src into the SpMV iterate blocks, runs the two-round
// halo-exchange application, and copies the extended-region interiors to
// dst. The copies model descriptor re-aliasing and are free; the SpMV
// cycles are measured.
func (s *BiCGStab2DWSE) runSpMV(src, dst []int, acc *int64) error {
	b := s.B
	for i, t := range s.M.Tiles {
		off := s.spmv.IterateOff(i)
		for e := 0; e < b*b; e++ {
			t.Arena.Set(off+e, t.Arena.At(src[i]+e))
		}
	}
	cycles, err := s.spmv.Run(int64(b*b)*1000 + 100000)
	if err != nil {
		return err
	}
	*acc += cycles
	for i, t := range s.M.Tiles {
		for e := 0; e < b*b; e++ {
			t.Arena.Set(dst[i]+e, t.Arena.At(s.spmv.InteriorIndex(i, e)))
		}
	}
	return nil
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
			if op.M != prog.Mesh {
				return nil, fmt.Errorf("kernels: wafer 2D backend built for mesh %v, got %v", prog.Mesh, op.M)
			}
			prog.LoadCoeff(op)
		} else if prog, err = NewBiCGStab2DWSE(mach, op, b); err != nil {
			return nil, err
		}
		return prog.Solve, nil
	}}
}
