package kernels

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fp16"
	"repro/internal/solver"
	"repro/internal/stencil"
)

// WaferBackend executes linear solves on cycle-simulated wafers: the
// one adapter from a wafer solver to solver.Backend, built by
// NewBackend for each program (NewWafer3DBackend, NewWafer2DBackend,
// NewWaferStarBackend, and multiwafer.NewBackend for a wafer grid). The
// first Solve fixes the mesh and builds the solver; later ones reload
// coefficients and reuse routing, memory layout and tasks, so a warm
// backend serves an arbitrary sequence of systems on one mesh — the
// daemon's machine-cache contract. An operator of another kind, or of
// another mesh, is refused and leaves the backend usable. Solve,
// LastStats and Close take one lock, so a backend is safe for
// concurrent use: solves on its machines serialise. Solve holds the
// lock for the whole solve, so a Progress or Checkpoint callback must
// not call back into the backend. Close releases the machines.
type WaferBackend struct {
	name     string
	prescale bool
	close    func()
	// run lowers an operator, builds the solver for the first one or
	// reloads the coefficients of a later one, and solves.
	run func(a stencil.Operator, b []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error)

	mu sync.Mutex
	// Cumulative instrumentation across solves, for cycles/meshpoint
	// reporting; read it while no Solve runs.
	Solves     int
	Iterations int
	Cycles     PhaseCycles
	last       WSEStats
}

// coeffSolver is a built wafer solver whose operator can be reloaded.
type coeffSolver[H any] interface {
	LoadCoeff(H) error
	Solve([]fp16.Float16, WSEOptions) ([]fp16.Float16, WSEStats, error)
}

// NewBackend returns the backend called name over a wafer solver of
// operators of kind A: lower turns each operator into the form the
// solver loads (or refuses it), build makes the solver on the first
// Solve, its LoadCoeff takes every later operator, and close releases
// the machines. With prescale the right-hand side is scaled by a power
// of two so its magnitude sits near one — exact in both float64 and
// fp16, so it changes no mantissa bits — and the solution is unscaled
// on the way out, which keeps the fp16 iterate clear of the subnormal
// range.
func NewBackend[A stencil.Operator, H any, S coeffSolver[H]](name string, prescale bool, close func(),
	lower func(A) (H, error), build func(H) (S, error)) *WaferBackend {
	var built coeffSolver[H]
	return &WaferBackend{name: name, prescale: prescale, close: close,
		run: func(a stencil.Operator, b []fp16.Float16, opts WSEOptions) ([]fp16.Float16, WSEStats, error) {
			op, ok := a.(A)
			if !ok {
				return nil, WSEStats{}, fmt.Errorf("kernels: the %s backend runs %T systems, not %T", name, op, a)
			}
			h, err := lower(op)
			if err != nil {
				return nil, WSEStats{}, err
			}
			if built == nil {
				s, err := build(h)
				if err != nil {
					return nil, WSEStats{}, err
				}
				built = s
			} else if err := built.LoadCoeff(h); err != nil {
				return nil, WSEStats{}, err
			}
			return built.Solve(b, opts)
		}}
}

// Name implements solver.Backend.
func (w *WaferBackend) Name() string { return w.name }

// LastStats returns the raw wafer statistics of the most recent
// completed solve (solver.Stats has no slot for simulated cycles); the
// zero value before any.
func (w *WaferBackend) LastStats() WSEStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Close releases the machines, once no Solve is running.
func (w *WaferBackend) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.close()
}

// Solve implements solver.Backend: check the system once, before any
// machine is built or touched; demand the zero initial guess the wafer
// solve starts from, as the paper's does; and make the float64 ↔ fp16
// crossing around the wafer solve.
func (w *WaferBackend) Solve(a stencil.Operator, b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := solver.CheckSystem(a, b, x0); err != nil {
		return nil, solver.Stats{}, err
	}
	for i, v := range x0 {
		if v != 0 {
			return nil, solver.Stats{}, fmt.Errorf("kernels: wafer solve requires a zero initial guess (x0[%d] = %g)", i, v)
		}
	}
	exp := 0
	if w.prescale {
		amax := 0.0
		for _, v := range b {
			amax = math.Max(amax, math.Abs(v))
		}
		if amax == 0 {
			return nil, solver.Stats{}, solver.ErrZeroRHS
		}
		_, exp = math.Frexp(amax) // amax·2^−exp ∈ [0.5, 1)
		scaled := make([]float64, len(b))
		for i, v := range b {
			scaled[i] = math.Ldexp(v, -exp)
		}
		b = scaled
	}
	x16, st, err := w.run(a, fp16.FromFloat64Slice(b), opts)
	if err != nil {
		return nil, solver.Stats{}, err
	}
	x := fp16.ToFloat64Slice(x16)
	if exp != 0 {
		for i, v := range x {
			x[i] = math.Ldexp(v, exp)
		}
	}
	w.Solves++
	w.Iterations += st.Iterations
	w.Cycles.add(st.Cycles)
	w.last = st
	out := solver.Stats{Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown}
	if n := len(st.History); n > 0 {
		out.FinalResidual = st.History[n-1]
	}
	if opts.RecordHistory {
		out.History = st.History
	}
	return x, out, nil
}
