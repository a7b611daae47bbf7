package kernels

import (
	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// BiCGStab2DWSE is the wafer solver over the 2D block-halo mapping:
// each tile owns a b×b block of the mesh, the nine coefficient
// diagonals for it, and b²-element solver vectors; the SpMV is the
// two-round halo-exchange program of the paper's §IV-2 mapping (the
// 9-point box spec compiled by stencilc: a stencilc.Program2D, the
// cycle-simulated form of the dataflow stencilc.Reference2D replays on
// the host).
type BiCGStab2DWSE = WaferSolver[*stencil.Op9]

// NewBiCGStab2DWSE builds the solver for a unit-centre 9-point operator
// whose mesh tiles the machine fabric with b×b blocks. The exchange uses
// colors 0–3 and the AllReduce colors 4–9.
func NewBiCGStab2DWSE(m *wse.Machine, op *stencil.Op9, b int) (*BiCGStab2DWSE, error) {
	spmv, err := stencilc.Compile2D(m, stencilc.Spec9Point(), op, b, 0)
	if err != nil {
		return nil, err
	}
	mesh := op.M
	// Tile (x, y) holds its b×b block row-major.
	index := func(_, tile, elem int) int {
		c := m.Tiles[tile].Coord
		return mesh.Index(c.X*b+elem%b, c.Y*b+elem/b)
	}
	return newWaferSolver(m, spmv, spmv.LoadCoeff, b*b, stencilc.NumExchangeColors, index)
}

// NewWafer2DBackend wraps mach as the solver.Backend of the 2D
// block-halo program with b×b blocks — the pressure-correction backend
// of the cavity-on-wafer experiment. The mesh must tile the machine's
// fabric with that block size. The right-hand side is pre-scaled by a
// power of two (see NewBackend), which keeps the fp16-stored iterate
// clear of the subnormal range for the small mass-imbalance values
// SIMPLE produces.
func NewWafer2DBackend(mach *wse.Machine, b int) *WaferBackend {
	lower := func(op *stencil.Op9) (*stencil.Op9, error) { return op, nil }
	return NewBackend("wse", true, mach.Close, lower, func(op *stencil.Op9) (*BiCGStab2DWSE, error) {
		return NewBiCGStab2DWSE(mach, op, b)
	})
}
