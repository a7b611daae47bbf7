package kernels

import (
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/solver"
)

// waferSeam is the operator-independent half of the wafer adapters to
// the solver.Backend2D / solver.BackendStar seams: once the adapter has
// built (or reloaded) its wafer program, the float64 ↔ fp16 crossing,
// the option mapping and the instrumentation are the same.
type waferSeam struct {
	// Cumulative instrumentation across solves, for cycles/meshpoint
	// reporting.
	Solves     int
	Iterations int
	Cycles     PhaseCycles
	// LastStats is the raw wafer statistics of the most recent solve.
	LastStats WSEStats
}

// Name implements solver.Backend2D and solver.BackendStar.
func (*waferSeam) Name() string { return "wse" }

// solve runs one float64 system through the wafer program's Solve. The
// right-hand side is pre-scaled by a power of two so its magnitude sits
// near one — exact in both float64 and fp16, so it changes no mantissa
// bits — and the solution is unscaled on the way out. The wafer solve
// starts from a zero guess, as the paper's does.
func (w *waferSeam) solve(run func([]fp16.Float16, WSEOptions) ([]fp16.Float16, WSEStats, error),
	b, x0 []float64, opts solver.Options) ([]float64, solver.Stats, error) {
	for i, v := range x0 {
		if v != 0 {
			return nil, solver.Stats{}, fmt.Errorf("kernels: wafer solve requires a zero initial guess (x0[%d] = %g)", i, v)
		}
	}
	amax := 0.0
	for _, v := range b {
		amax = math.Max(amax, math.Abs(v))
	}
	if amax == 0 {
		return nil, solver.Stats{}, solver.ErrZeroRHS
	}
	_, exp := math.Frexp(amax) // amax·2^−exp ∈ [0.5, 1)
	scaled := make([]fp16.Float16, len(b))
	for i, v := range b {
		scaled[i] = fp16.FromFloat64(math.Ldexp(v, -exp))
	}

	x16, st, err := run(scaled, WSEOptions{
		Ctx:     opts.Ctx,
		MaxIter: opts.MaxIter, Tol: opts.Tol,
		CheckpointEvery: opts.CheckpointEvery, Checkpoint: opts.Checkpoint, Resume: opts.Resume,
	})
	if err != nil {
		return nil, solver.Stats{}, err
	}
	w.Solves++
	w.Iterations += st.Iterations
	w.Cycles.Add(st.Cycles)
	w.LastStats = st

	out := make([]float64, len(x16))
	for i, v := range x16 {
		out[i] = math.Ldexp(v.Float64(), exp)
	}
	return out, st.SolverStats(opts.RecordHistory), nil
}
