package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestBenchmarkJSONIsGenerated holds BENCHMARK.json at the repository
// root to the program's tables (it is the output of -contract), and the
// tables to the contract's limits.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	printContract(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json is stale: regenerate with bash benchmark/run.sh -contract > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	ws := workloads(false)
	if len(ws) != 7 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads (want 7), %d end-to-end (limit 16), %d per-layer (limit 128)", len(ws), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, w := range ws {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", d)
		}
		if seen[d.Name] {
			t.Errorf("%s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestEveryWorkloadToy runs every workload's untraced and traced path
// once at 4×4×8: every metric of the matching table must come out, with
// its unit, and no operation may fail.
func TestEveryWorkloadToy(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			res := runOne(w, 11, 0.05, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			for _, d := range table {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics reported, table has %d", w.Name, trace, len(res.Metrics), len(table))
			}
		}
	}
}

// TestSpansNest replicates one call under the recorder: children lie
// inside their parents, self times are non-negative and sum to the
// root, and the replicated sequence returns the façade's bits.
func TestSpansNest(t *testing.T) {
	for _, w := range workloads(true)[:5] {
		in := w.buildInput(3)
		want, err := w.call(in, w.options(""))
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		got, err := replicate(rec, w.Name+"/0", w, in)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) || got.TrueResidual != want.TrueResidual {
			t.Errorf("%s: replicated sequence %s, façade %s", w.Name, hex(fingerprint(got)), hex(fingerprint(want)))
		}
		spans := rec.finish()
		var self int64
		iters := 0
		for _, s := range spans {
			self += s.Self
			if s.Self < 0 || s.End < s.Start {
				t.Errorf("%s: span %s has negative time", w.Name, s.Name)
			}
			if s.Parent >= 0 {
				p := spans[s.Parent]
				if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
					t.Errorf("%s: span %s escapes its parent %s", w.Name, s.Name, p.Name)
				}
			}
			if s.Name == spanIter {
				iters++
			}
		}
		if root := spans[0].End - spans[0].Start; self != root {
			t.Errorf("%s: self times sum to %d ns, root is %d ns", w.Name, self, root)
		}
		if iters != w.MaxIter {
			t.Errorf("%s: %d iteration spans, want %d", w.Name, iters, w.MaxIter)
		}
	}
}

// TestCorruptedOutputCountsAsFailed flips one bit of an otherwise good
// result: both checks must name it, and the run must count it failed.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	w := workloads(true)[0]
	res, err := w.call(w.buildInput(5), w.options(""))
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprint(res)
	if reason := checkSolve(res, nil, w.MaxIter, ref); reason != "" {
		t.Fatalf("good result rejected: %s", reason)
	}
	bad := res
	bad.X = append([]float64(nil), res.X...)
	bad.X[len(bad.X)/2] += 1e-9
	out := newRunResult(w, 5, false)
	out.op(checkSolve(res, nil, w.MaxIter, ref))
	out.op(checkSolve(bad, nil, w.MaxIter, ref))
	if out.Attempted != 2 || out.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", out.Attempted, out.Failed)
	}

	view := func(r core.Result) service.JobView {
		return service.JobView{ID: "j000001", State: service.StateDone, Result: &service.JobResult{
			Iterations: r.Iterations, TrueResidual: r.TrueResidual, History: r.History, Telemetry: r.Telemetry}}
	}
	if reason := checkJob(view(res), res); reason != "" {
		t.Errorf("good job rejected: %s", reason)
	}
	bad.History = append([]float64(nil), res.History...)
	bad.History[0] *= 1 + 1e-15
	if checkJob(view(bad), res) == "" {
		t.Error("a job whose history differs in one bit passed")
	}
	failedJob := view(res)
	failedJob.State = service.StateFailed
	if checkJob(failedJob, res) == "" {
		t.Error("a job that ended failed passed")
	}
}

// TestPinsCatchMovedOutputs: a pin rejects moved cycles at any seed and
// moved bits at the pinned seed only.
func TestPinsCatchMovedOutputs(t *testing.T) {
	const pinnedSeed = 7
	pin := &expectation{Fingerprint: hex(42), SimCyclesPerIter: 100, TrueResidual: 0.5, seed: pinnedSeed}
	if r := pin.check(pinnedSeed, 42, 100, 0.5); len(r) != 0 {
		t.Errorf("matching run rejected: %v", r)
	}
	if r := pin.check(pinnedSeed+1, 43, 100, 0.25); len(r) != 0 {
		t.Errorf("another seed held to the pinned bits: %v", r)
	}
	if r := pin.check(pinnedSeed+1, 43, 101, 0.25); len(r) != 1 {
		t.Errorf("moved cycles at another seed: %v", r)
	}
	if r := pin.check(pinnedSeed, 43, 100, 0.25); len(r) != 2 {
		t.Errorf("moved bits at the pinned seed: %v", r)
	}
}

// TestCompareVerdicts covers ok, regressed (either direction of
// "better") and unresolved.
func TestCompareVerdicts(t *testing.T) {
	lowerDef := metricDef{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.1}
	higherDef := metricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		a, b summaryRow
		want string
	}{
		{summaryRow{Def: lowerDef, Median: 1}, summaryRow{Def: lowerDef, Median: 1.05}, "ok"},
		{summaryRow{Def: lowerDef, Median: 1}, summaryRow{Def: lowerDef, Median: 1.2}, "regressed"},
		{summaryRow{Def: lowerDef, Median: 1}, summaryRow{Def: lowerDef, Median: 0.5}, "ok"},
		{summaryRow{Def: higherDef, Median: 10}, summaryRow{Def: higherDef, Median: 8}, "regressed"},
		{summaryRow{Def: higherDef, Median: 10}, summaryRow{Def: higherDef, Median: 12}, "ok"},
		{summaryRow{Def: lowerDef, Median: 1, Spread: 0.3}, summaryRow{Def: lowerDef, Median: 1.2}, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%v -> %v: %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
