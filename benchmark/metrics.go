package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef names one metric. The two tables below are the program's
// side of BENCHMARK.json; bench_test.go asserts the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a caller of the system sees. Every workload reports
// every one of them: a "job" is one spec-to-answer operation — input
// generation plus the façade call in process, or submit → terminal
// state over HTTP. The three timings are floor times (see floor).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"job_s", "s", "lower", 0.25},
	{"sim_cycles_per_iter", "cycles", "lower", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// perLayer is the outside-in ladder, prefixed by internal/ module. The
// traced run of every workload reports every one of them, measured on
// that workload's mesh (see ladder.go for what each rung runs).
var perLayer = concat(
	lower("s", "fabric.new_s"),
	lower("ns", "fabric.step_sat_ns", "fabric.step_idle_ns"),
	higher("count", "fabric.words_per_cycle"),

	lower("s", "wse.new_s"),
	lower("ns", "wse.step_spin_ns", "wse.step_vec_ns.seq", "wse.step_vec_ns.batched", "wse.step_idle_ns"),
	lower("s", "wse.snapshot_s", "wse.restore_s"),
	lower("MB", "wse.snapshot_mb"),
	lower("s", "wse.engine_solve_s.seq", "wse.engine_solve_s.sharded", "wse.engine_solve_s.batched", "wse.engine_solve_s.fastforward"),

	lower("s", "stencilc.compile_s", "stencilc.apply_s"),
	lower("cycles", "stencilc.apply_cycles"),

	lower("s", "kernels.build_s", "kernels.pristine_s", "kernels.reset_s", "kernels.loadcoeff_s", "kernels.spmv_s"),
	lower("cycles", "kernels.spmv_cycles"),
	lower("s", "kernels.allreduce_s"),
	lower("cycles", "kernels.allreduce_cycles"),
	lower("s", "kernels.solve_s", "kernels.iter_s_first", "kernels.iter_s_p50"),
	lower("cycles", "kernels.cycles.spmv", "kernels.cycles.dot", "kernels.cycles.allreduce", "kernels.cycles.axpy", "kernels.cycles.setup"),
	lower("ratio", "kernels.allreduce_cycle_share", "kernels.max_ar_drift"),
	lower("ns", "kernels.host_ns_per_tile_cycle"),

	lower("cycles", "perfmodel.allreduce_cycles_model", "perfmodel.stencil_apply_cycles_model"),
	lower("s", "perfmodel.stencil_apply_eval_s"),
	lower("us", "perfmodel.paper_allreduce_us"),
	lower("ratio", "perfmodel.paper_iter_err_frac"),

	lower("s", "solver.host_mixed_solve_s"),
	lower("ratio", "solver.sim_slowdown"),

	lower("s", "multiwafer.new_s", "multiwafer.loadcoeff_s", "multiwafer.solve_s"),
	lower("cycles", "multiwafer.cycles.spmv", "multiwafer.cycles.edge_io", "multiwafer.cycles.dot", "multiwafer.cycles.allreduce", "multiwafer.cycles.combine", "multiwafer.cycles.axpy"),
	lower("ratio", "multiwafer.comm_cycle_share"),

	lower("s", "core.root_s", "core.self_s", "core.normalize_s", "core.build_s", "core.fp16_convert_s", "core.residual_s"),
	lower("MB", "core.alloc_mb_per_solve"),
	lower("ms", "core.gc_pause_ms"),
	lower("ratio", "core.true_residual", "trace_overhead_frac"),

	lower("s", "service.new_s", "service.shutdown_s", "service.submit_s_p50", "service.read_s_p50", "service.read_s_p99", "service.solution_s_p50"),
	lower("s", "service.job_s_p50", "service.job_s_p90", "service.server_solve_s_mean", "service.overhead_s_p50"),
	higher("1/s", "service.jobs_per_s"),
	higher("count", "service.cache_hits"),
	lower("count", "service.cache_misses"),
	higher("ratio", "service.cache_hit_ratio"),
	lower("s", "service.cold_job_s", "service.warm_job_s_p50", "service.inproc_job_s_p50", "service.spool_job_delta_s", "service.recover_scan_s_1k"),
	lower("B", "service.spool_bytes_per_job"),

	lower("ratio", "failed_frac"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// measured is one reported value; N, Q1, Median and Q3 describe the
// samples behind a floor time (zero when the value is one measurement).
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
}

// quantile returns the p-quantile of sorted xs by the "exclusive"
// method of Python's statistics.quantiles, which the acceptance check
// uses: position p·(n+1), linear between neighbours, clamped to the
// sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// floor is the statistic a run reports for a repeated timing: its
// fastest sample. On the shared two-core sandbox a neighbour slows the
// vCPU about 1.5× for seconds at a time, a fifth to a half of the time,
// and for some hours all of the time; it only ever adds time, so the
// fastest of a window's 20 or more samples is the cost of the code and
// the rest is the neighbour. Over 14 consecutive 12 s windows of one
// call the median spread 40 %, the lower quartile 12 %, the 10th
// percentile 4.7 %, the minimum 3.7 %. Median and quartiles are printed
// beside it.
func floor(xs []float64) float64 { return slices.Min(xs) }

// summarize reports the floor of xs with its median, quartiles and count.
func summarize(xs []float64, unit string) measured {
	s := sortedCopy(xs)
	return measured{Value: s[0], Unit: unit, N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}
