package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fp16"
	"repro/internal/kernels"
	"repro/internal/multiwafer"
	"repro/internal/stencil"
	"repro/internal/wse"
)

// setupReps is how often a run repeats its set-up; setup_s is the floor
// of the repetitions, so a slow one does not move it.
const setupReps = 5

// minOps is the fewest timed operations a run makes however short
// -seconds is.
const minOps = 3

// runResult is what one run of one workload reports.
type runResult struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	Correct     bool   `json:"correct"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// TrueResidual is ‖b−Ax‖/‖b‖ of the reference result (the largest
	// over the job specs of a service workload).
	TrueResidual float64             `json:"true_residual"`
	WallS        float64             `json:"wall_s"`
	Metrics      map[string]measured `json:"metrics"`
	Notes        []string            `json:"notes,omitempty"` // one line per failed operation or check
}

func newRunResult(w workload, seed int64, trace bool) *runResult {
	return &runResult{Workload: w.Name, Seed: seed, Trace: trace, Metrics: make(map[string]measured)}
}

// op counts one attempted operation; a non-empty reason — an error, a
// job not ending done, an output failing its check — counts it failed.
func (r *runResult) op(reason string) {
	r.Attempted++
	if reason != "" {
		r.fail(reason)
	}
}

// opIn is op with the failing step named in front of the reason.
func (r *runResult) opIn(step, reason string) {
	if reason != "" {
		reason = step + ": " + reason
	}
	r.op(reason)
}

func (r *runResult) fail(reason string) {
	r.Failed++
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, reason)
	}
}

func (r *runResult) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("metric %s is %v", name, v))
		return
	}
	r.Metrics[name] = measured{Value: v, Unit: unitOf(name)}
}

func (r *runResult) setSamples(name string, xs []float64) {
	r.Metrics[name] = summarize(xs, unitOf(name))
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the tables of metrics.go")
}

// fingerprint reduces a solve result to FNV-1a over the IEEE bits of
// History and X, plus Iterations and the six phase-cycle counts.
func fingerprint(r core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range r.History {
		put(math.Float64bits(v))
	}
	for _, v := range r.X {
		put(math.Float64bits(v))
	}
	put(uint64(r.Iterations))
	c := r.Telemetry.Cycles
	for _, v := range []int64{c.SpMV, c.EdgeIO, c.Dot, c.AllReduce, c.Combine, c.Axpy} {
		put(uint64(v))
	}
	return h.Sum64()
}

func hex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func cyclesPerIter(r core.Result) float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.Telemetry.Cycles.Total()) / float64(r.Iterations)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the Go runtime's own reservation is the nearest figure.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// checkSolve compares one result against the run's reference — all
// repetitions must agree — and returns the failure reason, if any.
func checkSolve(res core.Result, err error, wantIter int, ref uint64) string {
	switch {
	case err != nil:
		return "solve: " + err.Error()
	case res.Iterations != wantIter:
		return fmt.Sprintf("solve ran %d iterations, want %d", res.Iterations, wantIter)
	case math.IsNaN(res.TrueResidual) || res.TrueResidual >= 1:
		return fmt.Sprintf("true residual %g: the solve made no progress", res.TrueResidual)
	case ref != 0 && fingerprint(res) != ref:
		return fmt.Sprintf("fingerprint %s differs from this run's first result %s", hex(fingerprint(res)), hex(ref))
	}
	return ""
}

// runSolve is the untraced run of a solve workload: set-up (input
// generation and one warm-up call) repeated setupReps times, then jobs
// back to back for the measuring window, every result checked.
func runSolve(w workload, seed int64, seconds float64, pin *expectation) *runResult {
	out := newRunResult(w, seed, false)
	opts := w.options("")

	var ref core.Result
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in := w.buildInput(seed)
		res, err := w.call(in, opts)
		setups = append(setups, time.Since(t0).Seconds())
		reason := checkSolve(res, err, w.MaxIter, 0)
		if i > 0 && reason == "" {
			reason = checkSolve(res, err, w.MaxIter, fingerprint(ref))
		}
		out.op(reason)
		if i == 0 {
			ref = res
		}
		runtime.GC() // as after every job below
	}
	refFP := fingerprint(ref)
	out.Fingerprint, out.TrueResidual = hex(refFP), ref.TrueResidual
	for _, reason := range pin.check(seed, refFP, cyclesPerIter(ref), ref.TrueResidual) {
		out.fail(reason)
	}

	var jobs, solves []float64
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < seconds; n++ {
		t0 := time.Now()
		in := w.buildInput(seed)
		t1 := time.Now()
		res, err := w.call(in, opts)
		t2 := time.Now()
		jobs = append(jobs, t2.Sub(t0).Seconds())
		solves = append(solves, t2.Sub(t1).Seconds())
		out.op(checkSolve(res, err, w.MaxIter, refFP))
		// Collect outside the timed span, so every job starts from a
		// collected heap as a one-solve-per-process CLI run does, and
		// neither solve_s nor peak_rss_mb depends on where the previous
		// job left the collector.
		runtime.GC()
	}

	out.setSamples("setup_s", setups)
	out.setSamples("solve_s", solves)
	out.setSamples("job_s", jobs)
	out.set("sim_cycles_per_iter", cyclesPerIter(ref))
	out.set("peak_rss_mb", peakRSSMB())
	return out
}

// ---------------------------------------------------------------------
// Traced replicate

// Span names of the replicate, by the role they play in the façade; the
// per-layer core.* metrics are sums over a role.
var (
	rolesNormalize = []string{"stencil.Normalize", "stencil.ScaleRHS"}
	rolesBuild     = []string{"wse.New", "kernels.NewBiCGStabWSE", "kernels.NewBiCGStabStarWSE", "multiwafer.New"}
	rolesConvert   = []string{"fp16.FromFloat64Slice", "fp16.ToFloat64Slice"}
	rolesSolve     = []string{"kernels.Solve", "multiwafer.Solve"}
	rolesResidual  = []string{"stencil.ResidualNorm"}
)

const (
	spanRoot = "core.Solve"
	spanIter = "iter"
)

// waferMachine builds the machine core.Solve would build for o.
func waferMachine(o core.Options, m stencil.Mesh) (*wse.Machine, error) {
	cfg := wse.CS1(m.NX, m.NY)
	cfg.Workers = o.Wafer.Workers
	if o.Wafer.Engine != "" {
		e, err := wse.ParseEngine(o.Wafer.Engine)
		if err != nil {
			return nil, err
		}
		cfg.Engine = e
	}
	return wse.New(cfg), nil
}

// replicate makes the workload's façade call as the sequence of public
// calls the façade itself makes (the sequence service.runSolve already
// replicates), with a span around each and one per iteration, cut by
// the observational WSEOptions.Progress hook. Its result must carry the
// façade's fingerprint, so the trace measures the same program.
func replicate(rec *recorder, trace string, w workload, in solveInput) (res core.Result, err error) {
	o := w.options("")
	root := rec.begin(trace, -1, spanRoot)
	defer rec.end(root)
	timed := func(name string, f func()) {
		id := rec.begin(trace, root, name)
		f()
		rec.end(id)
	}
	// solveTimed runs the backend's solve loop under a span whose
	// children are the iterations; the first also holds the ‖b‖² set-up.
	solveTimed := func(name string, solve func(kernels.WSEOptions) error) error {
		id := rec.begin(trace, root, name)
		iter := rec.begin(trace, id, spanIter)
		err := solve(kernels.WSEOptions{MaxIter: o.MaxIter, Tol: o.Tol, Progress: func(int, float64) {
			rec.end(iter)
			iter = rec.begin(trace, id, spanIter)
		}})
		rec.endAs(iter, "solve_tail") // after the last iteration: the loop's exit
		rec.end(id)
		return err
	}

	var sb, x []float64
	var residual func() float64
	switch w.Kind {
	case kindStar:
		var norm *stencil.OpStar
		var diag []float64
		timed("stencil.Normalize", func() { norm, diag = in.PStar.Op.Normalize() })
		timed("stencil.ScaleRHS", func() { sb = stencil.ScaleRHS(in.PStar.B, diag) })
		var mach *wse.Machine
		timed("wse.New", func() { mach, err = waferMachine(o, norm.M) })
		if err != nil {
			return res, err
		}
		defer mach.Close()
		var prog *kernels.BiCGStabStarWSE
		timed("kernels.NewBiCGStabStarWSE", func() {
			prog, err = kernels.NewBiCGStabStarWSE(mach, starSpec(norm), stencil.NewOpStarHalf(norm))
		})
		if err != nil {
			return res, err
		}
		// The star backend pre-scales b by a power of two into fp16 range
		// and unscales x on the way out (kernels.WaferStarBackend).
		var b16 []fp16.Float16
		var exp int
		timed("fp16.FromFloat64Slice", func() {
			amax := 0.0
			for _, v := range sb {
				amax = math.Max(amax, math.Abs(v))
			}
			_, exp = math.Frexp(amax)
			b16 = make([]fp16.Float16, len(sb))
			for i, v := range sb {
				b16[i] = fp16.FromFloat64(math.Ldexp(v, -exp))
			}
		})
		var x16 []fp16.Float16
		var st kernels.WSEStats
		if err = solveTimed("kernels.Solve", func(so kernels.WSEOptions) (e error) {
			x16, st, e = prog.Solve(b16, so)
			return e
		}); err != nil {
			return res, err
		}
		timed("fp16.ToFloat64Slice", func() {
			x = make([]float64, len(x16))
			for i, v := range x16 {
				x[i] = math.Ldexp(v.Float64(), exp)
			}
		})
		res = core.Result{X: x, Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown,
			History: st.History, Telemetry: core.TelemetryFromWSE(st)}
		residual = func() float64 { return norm.ResidualNorm(x, sb) / stencil.Norm2(sb) }

	default:
		var norm *stencil.Op7
		var diag []float64
		timed("stencil.Normalize", func() { norm, diag = in.P7.Op.Normalize() })
		timed("stencil.ScaleRHS", func() { sb = stencil.ScaleRHS(in.P7.B, diag) })
		var x16, b16 []fp16.Float16
		if w.Kind == kindMultiWafer {
			var cl *multiwafer.Cluster
			timed("multiwafer.New", func() {
				cl, err = multiwafer.New(multiwafer.Config{Grid: o.MultiWafer.Grid, Workers: o.MultiWafer.Workers}, stencil.NewOp7Half(norm))
			})
			if err != nil {
				return res, err
			}
			defer cl.Close()
			timed("fp16.FromFloat64Slice", func() { b16 = fp16.FromFloat64Slice(sb) })
			var st multiwafer.Stats
			if err = solveTimed("multiwafer.Solve", func(so kernels.WSEOptions) (e error) {
				x16, st, e = cl.Solve(b16, so)
				return e
			}); err != nil {
				return res, err
			}
			res = core.Result{Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown,
				History: st.History, Telemetry: core.TelemetryFromMultiWafer(st)}
		} else {
			var mach *wse.Machine
			timed("wse.New", func() { mach, err = waferMachine(o, norm.M) })
			if err != nil {
				return res, err
			}
			defer mach.Close()
			var sv *kernels.BiCGStabWSE
			timed("kernels.NewBiCGStabWSE", func() { sv, err = kernels.NewBiCGStabWSE(mach, stencil.NewOp7Half(norm)) })
			if err != nil {
				return res, err
			}
			timed("fp16.FromFloat64Slice", func() { b16 = fp16.FromFloat64Slice(sb) })
			var st kernels.WSEStats
			if err = solveTimed("kernels.Solve", func(so kernels.WSEOptions) (e error) {
				x16, st, e = sv.Solve(b16, so)
				return e
			}); err != nil {
				return res, err
			}
			res = core.Result{Iterations: st.Iterations, Converged: st.Converged, Breakdown: st.Breakdown,
				History: st.History, Telemetry: core.TelemetryFromWSE(st)}
		}
		timed("fp16.ToFloat64Slice", func() { x = fp16.ToFloat64Slice(x16) })
		res.X = x
		residual = func() float64 { return norm.ResidualNorm(x, sb) / stencil.Norm2(sb) }
	}
	timed("stencil.ResidualNorm", func() { res.TrueResidual = residual() })
	return res, nil
}

// sumRoles adds the durations of every span named in roles.
func sumRoles(spans []span, roles []string) float64 {
	total := 0.0
	for _, name := range roles {
		total += spanSeconds(spans, name)
	}
	return total
}
