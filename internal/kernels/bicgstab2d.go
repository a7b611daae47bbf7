package kernels

import (
	"fmt"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// BiCGStab2DWSE runs BiCGStab on the simulated wafer over the 2D
// block-halo mapping: each tile owns a b×b block of the mesh, the nine
// coefficient diagonals for it, and b²-element solver vectors; the SpMV
// is the two-round halo-exchange program (SpMV2DMachine), and the
// Algorithm 1 control flow — mixed-precision dots, Figure 6 AllReduces,
// SIMD vector updates — is the shared BiCGStabEngine.
type BiCGStab2DWSE struct {
	M    *wse.Machine
	Mesh stencil.Mesh2D
	B    int

	spmv *SpMV2DMachine
	eng  *BiCGStabEngine
}

// NewBiCGStab2DWSE builds the solver for a unit-centre 9-point operator
// whose mesh tiles the machine fabric with b×b blocks. The exchange uses
// colors 0–3 and the AllReduce colors 4–9.
func NewBiCGStab2DWSE(m *wse.Machine, op *stencil.Op9, b int) (*BiCGStab2DWSE, error) {
	spmv, err := NewSpMV2DMachineColors(m, op, b, 0)
	if err != nil {
		return nil, err
	}
	s := &BiCGStab2DWSE{M: m, Mesh: op.M, B: b, spmv: spmv}
	s.eng, err = newWSEBiCG(m, b*b, NumStencil2DColors, s.runSpMV, s.index)
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
		off := s.spmv.prog.IterateOff(i)
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
			t.Arena.Set(dst[i]+e, t.Arena.At(s.spmv.prog.InteriorIndex(i, e)))
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// solver.Backend2D adapter

// Wafer2DBackend executes 2D linear solves on a cycle-simulated wafer:
// the pressure-correction backend of the cavity-on-wafer experiment.
// The first Solve2D call fixes the mesh (which must tile the machine's
// fabric with the configured block size) and builds the wafer program;
// subsequent calls reload coefficients and reuse routing, memory layout
// and tasks. The caller owns the machine and must Close it when done.
//
// The right-hand side is pre-scaled by a power of two (waferSeam), which
// keeps the fp16-stored iterate clear of the subnormal range for the
// small mass-imbalance values SIMPLE produces.
type Wafer2DBackend struct {
	mach *wse.Machine
	b    int
	prog *BiCGStab2DWSE

	waferSeam
}

// NewWafer2DBackend wraps mach as a 2D solve backend with b×b blocks.
func NewWafer2DBackend(mach *wse.Machine, b int) *Wafer2DBackend {
	return &Wafer2DBackend{mach: mach, b: b}
}

// Solve2D implements solver.Backend2D.
func (w *Wafer2DBackend) Solve2D(op *stencil.Op9, b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	if w.prog == nil {
		prog, err := NewBiCGStab2DWSE(w.mach, op, w.b)
		if err != nil {
			return nil, solver.Stats{}, err
		}
		w.prog = prog
	} else {
		if op.M != w.prog.Mesh {
			return nil, solver.Stats{}, fmt.Errorf("kernels: wafer 2D backend built for mesh %v, got %v", w.prog.Mesh, op.M)
		}
		w.prog.LoadCoeff(op)
	}
	return w.solve(w.prog.Solve, b, x0, opts)
}
