package kernels

import (
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// SolveFunc is the Solve of a built wafer program: fp16 right-hand side
// in, fp16 solution and the cycle account out.
type SolveFunc = func([]fp16.Float16, WSEOptions) ([]fp16.Float16, WSEStats, error)

// SolveFloat64 is the operator-independent half of every simulated
// solver.Backend (WaferBackend, multiwafer.Backend): check the system
// once, before any machine is built or touched; demand the zero initial
// guess the wafer solve starts from, as the paper's does; let load
// build the wafer program for the operator, or reload its coefficients,
// and return the program's Solve; and make the float64 ↔ fp16 crossing
// around it. With prescale the right-hand side is scaled by a power of
// two so its magnitude sits near one — exact in both float64 and fp16,
// so it changes no mantissa bits — and the solution is unscaled on the
// way out, which keeps the fp16 iterate clear of the subnormal range.
func SolveFloat64(a stencil.Operator, b, x0 []float64, opts solver.Options, prescale bool,
	load func() (SolveFunc, error)) ([]float64, WSEStats, error) {
	if err := solver.CheckSystem(a, b, x0); err != nil {
		return nil, WSEStats{}, err
	}
	for i, v := range x0 {
		if v != 0 {
			return nil, WSEStats{}, fmt.Errorf("kernels: wafer solve requires a zero initial guess (x0[%d] = %g)", i, v)
		}
	}
	exp := 0
	if prescale {
		amax := 0.0
		for _, v := range b {
			amax = math.Max(amax, math.Abs(v))
		}
		if amax == 0 {
			return nil, WSEStats{}, solver.ErrZeroRHS
		}
		_, exp = math.Frexp(amax) // amax·2^−exp ∈ [0.5, 1)
		scaled := make([]float64, len(b))
		for i, v := range b {
			scaled[i] = math.Ldexp(v, -exp)
		}
		b = scaled
	}
	run, err := load()
	if err != nil {
		return nil, WSEStats{}, err
	}
	x16, st, err := run(fp16.FromFloat64Slice(b), opts)
	if err != nil {
		return nil, WSEStats{}, err
	}
	out := fp16.ToFloat64Slice(x16)
	if exp != 0 {
		for i, v := range out {
			out[i] = math.Ldexp(v, exp)
		}
	}
	return out, st, nil
}

// WaferBackend executes linear solves on one cycle-simulated wafer: the
// adapter from this package's wafer programs to solver.Backend, one
// constructor per program (NewWafer3DBackend, NewWafer2DBackend,
// NewWaferStarBackend). The first Solve fixes the mesh and builds the
// wafer program; later ones reload coefficients and reuse routing,
// memory layout and tasks, so a warm backend serves an arbitrary
// sequence of systems on one mesh — the daemon's machine-cache
// contract. An operator of another kind is refused and leaves the
// backend usable. Close releases the machine.
type WaferBackend struct {
	mach *wse.Machine
	// load builds the wafer program for the first operator it is handed,
	// reloads the coefficients of later ones, and returns the program's
	// Solve; prescale is SolveFloat64's.
	load     func(a stencil.Operator) (SolveFunc, error)
	prescale bool

	// Cumulative instrumentation across solves, for cycles/meshpoint
	// reporting.
	Solves     int
	Iterations int
	Cycles     PhaseCycles
	last       WSEStats
}

// Name implements solver.Backend.
func (*WaferBackend) Name() string { return "wse" }

// LastStats returns the raw wafer statistics of the most recent
// completed solve (solver.Stats has no slot for simulated cycles).
func (w *WaferBackend) LastStats() WSEStats { return w.last }

// Close releases the machine's simulation worker pool.
func (w *WaferBackend) Close() { w.mach.Close() }

// Solve implements solver.Backend.
func (w *WaferBackend) Solve(a stencil.Operator, b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	x, st, err := SolveFloat64(a, b, x0, opts, w.prescale, func() (SolveFunc, error) { return w.load(a) })
	if err != nil {
		return nil, solver.Stats{}, err
	}
	w.Solves++
	w.Iterations += st.Iterations
	w.Cycles.add(st.Cycles)
	w.last = st
	return x, st.SolverStats(opts.RecordHistory), nil
}

// errCannotLower is the error of a wafer backend handed an operator
// kind its program does not run.
func errCannotLower(a stencil.Operator, program string) error {
	return fmt.Errorf("kernels: the %s wafer backend cannot run a %T system", program, a)
}
