package kernels

import (
	"fmt"

	"repro/internal/stencil"
	"repro/internal/stencilc"
	"repro/internal/wse"
)

// BiCGStabStarWSE is the wafer solver for an arbitrary star stencil:
// the SpMV is a stencil-compiled relay-exchange program
// (stencilc.Program3D) applying a unit-diagonal star operator of
// per-axis widths up to stencilc.MaxWidth — the 25-point seismic
// stencil, the 7-point heat step, and everything between. At
// stencilc.Spec7Point over stencil.HalfFromOp7 it is the deterministic
// halo-exchange rendering of the 7-point solve — the same program each
// multiwafer part runs — whose residual history is bit-identical to the
// host chunked mixed-precision solver and the multi-wafer backend
// (core.TestAllBackendsBitIdentical).
type BiCGStabStarWSE = WaferSolver[*stencil.OpStarHalf]

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
	return newWaferSolver(m, prog, prog.LoadCoeff, op.M.NZ, stencilc.NumExchangeColors, columnIndex(m, op.M))
}

// NewWaferStarBackend wraps mach as the solver.Backend of the
// stencil-compiled program for spec: star systems on a mesh whose X×Y
// extent equals the fabric. The compiled program's fixed order is
// reuse-stable with LoadCoeff alone. The right-hand side is pre-scaled
// by a power of two, exactly as the 2D backend does.
func NewWaferStarBackend(mach *wse.Machine, spec stencilc.Spec) *WaferBackend {
	// Reject non-lowerable specs before building the fp16 half operator:
	// the host references assert Dirichlet, and the caller deserves the
	// compiler's *UnsupportedError rather than that panic.
	lower := func(op *stencil.OpStar) (*stencil.OpStarHalf, error) {
		if err := spec.Lowerable(); err != nil {
			return nil, err
		}
		return stencil.NewOpStarHalf(op), nil
	}
	return NewBackend("wse", true, mach.Close, lower, func(h *stencil.OpStarHalf) (*BiCGStabStarWSE, error) {
		return NewBiCGStabStarWSE(mach, spec, h)
	})
}
