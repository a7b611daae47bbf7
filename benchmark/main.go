// Command benchmark is the repository's benchmark: seven named
// workloads driven through the public entry points (core.Solve,
// core.SolveStar, the service HTTP API), every output checked bit for
// bit, end-to-end metrics from an untraced run and the per-layer ladder
// from a separate traced run. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md beside this file explains
// each of them.
//
//	bash benchmark/run.sh                 every workload, end to end
//	bash benchmark/run.sh -trace 1        ... then every workload traced
//	bash benchmark/run.sh -workload deep_z -seed 7 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -update-expect  re-pin expect.json
//
// With -workload the program runs that one workload in this process and
// prints one JSON object as its last line. Without it, it re-executes
// itself once per workload and run, so heap state and peak_rss_mb never
// leak from one workload into the next, and writes results.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is the measuring window BENCHMARK.json asks the driver for.
const runSeconds = 12

// detailPrefix marks the line on which a single-workload run prints its
// full runResult for the parent process.
const detailPrefix = "#detail "

func main() {
	var (
		name         = flag.String("workload", "", "run this one workload in process and print its result as the last line")
		seed         = flag.Int64("seed", 7, "drives every generated input; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "length of one run's measuring window")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		runs         = flag.Int("runs", 1, "without -workload: untraced runs per workload, at seeds seed, seed+1, ...")
		only         = flag.String("only", "", "without -workload: comma-separated workloads to run (default all)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
		updateExpect = flag.Bool("update-expect", false, "re-pin benchmark/expect.json from untraced runs at -seed")
		toy          = flag.Bool("toy", false, "shrink every mesh to 4x4x8 (what the package test runs)")
		contract     = flag.Bool("contract", false, "print BENCHMARK.json as the program's tables define it")
		out          = flag.String("out", outDir, "directory for results.json, traces and temporary spools")
	)
	flag.Parse()
	outDir = *out

	switch {
	case *contract:
		printContract(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatal("unexpected arguments: %v", flag.Args())
	case *seconds <= 0:
		fatal("-seconds must be positive")
	}

	exp, err := loadExpect()
	if err != nil {
		fatal("%v", err)
	}
	ws := workloads(*toy)

	if *name != "" {
		w, err := findWorkload(ws, *name)
		if err != nil {
			fatal("%v", err)
		}
		var pin *expectation
		if !*toy && !*updateExpect {
			if pin = exp.Workloads[w.Name]; pin == nil {
				fatal("%s has no entry for %s; run -update-expect", expectPath, w.Name)
			}
		}
		res := runOne(w, *seed, *seconds, *trace != 0, pin)
		printRun(os.Stdout, res)
		return
	}

	if *only != "" {
		var keep []workload
		for _, n := range strings.Split(*only, ",") {
			w, err := findWorkload(ws, n)
			if err != nil {
				fatal("%v", err)
			}
			keep = append(keep, w)
		}
		ws = keep
	}
	os.Exit(runAll(ws, *seed, *seconds, *runs, *trace != 0, *updateExpect, *toy))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process.
func runOne(w workload, seed int64, seconds float64, trace bool, pin *expectation) *runResult {
	t0 := time.Now()
	var res *runResult
	switch {
	case trace:
		res = runTraced(w, seed, seconds)
	case w.Kind == kindService:
		res = runService(w, seed, seconds, pin)
	default:
		res = runSolve(w, seed, seconds, pin)
	}
	res.WallS = time.Since(t0).Seconds()
	table := endToEnd
	if trace {
		table = perLayer
	}
	for _, d := range table {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.fail("metric " + d.Name + " was not measured")
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// printRun prints every metric by name with its unit, the detail line,
// and — last — the one JSON object the driver reads.
func printRun(out *os.File, res *runResult) {
	table := endToEnd
	if res.Trace {
		table = perLayer
	}
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  wall %.2fs\n", res.Workload, res.Seed, res.Trace, res.WallS)
	short := make(map[string]map[string]any)
	for _, d := range table {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  floor of n=%d: q1=%.6g median=%.6g q3=%.6g", m.N, m.Q1, m.Median, m.Q3)
		}
		fmt.Fprintln(out, line)
		short[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	if !res.Trace { // the traced run has it in its table
		fmt.Fprintf(out, "  %-36s %14.6g %-6s\n", "failed_frac", failedFrac, "ratio")
	}
	fmt.Fprintf(out, "  %d of %d operations failed\n", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintln(out, "  FAILED:", n)
	}
	detail, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s%s\n", detailPrefix, detail)
	last, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": short,
	})
	fmt.Fprintf(out, "%s\n", last)
}

// printContract writes BENCHMARK.json from the tables in workloads.go
// and metrics.go, so the file at the repository root is generated, not
// typed: bash benchmark/run.sh -contract > BENCHMARK.json.
func printContract(out io.Writer) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads(false) {
		c.Workloads = append(c.Workloads, named{w.Name, w.Why})
	}
	data, _ := json.MarshalIndent(c, "", "  ")
	fmt.Fprintf(out, "%s\n", data)
}

// environment is recorded with every results file: host timings mean
// nothing without it.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WallS      float64 `json:"wall_s"`
}

type resultsFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll re-executes this binary once per workload and run, prints a
// table and writes results.json. It returns the process exit code.
func runAll(ws []workload, seed int64, seconds float64, runs int, trace, updateExpect, toy bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	file := resultsFile{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: cpuModel(), Commit: commit(), Seed: seed, Seconds: seconds,
	}}
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  %s  commit %s  seed %d\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.Go, file.Env.CPU, file.Env.Commit, seed)
	start := time.Now()
	modes := []bool{false}
	if trace && !updateExpect {
		modes = append(modes, true)
	}
	exit := 0
	for _, traced := range modes {
		for _, w := range ws {
			n := runs
			if traced { // the per-layer numbers are not gated: one traced run
				n = 1
			}
			for r := 0; r < n; r++ {
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed + int64(r)),
					"-seconds", fmt.Sprint(seconds), "-out", outDir}
				if traced {
					args = append(args, "-trace", "1")
				}
				if toy {
					args = append(args, "-toy")
				}
				if updateExpect {
					args = append(args, "-update-expect")
				}
				res, err := runChild(self, args)
				if err != nil {
					fmt.Printf("%s: %v\n", w.Name, err)
					exit = 1
					continue
				}
				file.Runs = append(file.Runs, res)
				if !res.Correct {
					exit = 1
				}
			}
		}
	}
	file.Env.WallS = time.Since(start).Seconds()
	printSummary(os.Stdout, file)

	if updateExpect {
		if exit != 0 {
			fatal("not re-pinning: a run failed")
		}
		if err := writeExpect(seed, file.Runs); err != nil {
			fatal("%v", err)
		}
		fmt.Println("wrote", expectPath)
		return 0
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	data, _ := json.MarshalIndent(file, "", " ")
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s (%.0fs in total)\n", path, file.Env.WallS)
	return exit
}

// runChild runs one workload in a fresh process and parses its detail
// line; the child's own report is echoed as it arrives.
func runChild(self string, args []string) (*runResult, error) {
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var res *runResult
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			res = new(runResult)
			if jerr := json.Unmarshal([]byte(rest), res); jerr != nil {
				return nil, jerr
			}
		} else if line != "" && !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no result")
	}
	return res, nil
}

// printSummary prints, per workload and metric, the median over the
// runs, the quartiles and — for end-to-end metrics — the spread the
// acceptance check looks at: (q3 − q1) / median against the bound.
func printSummary(out *os.File, file resultsFile) {
	fmt.Fprintf(out, "\n%-16s %-22s %14s %14s %14s %4s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "runs", "spread", "bound")
	for _, row := range summaryRows(file, false) {
		fmt.Fprintf(out, "%-16s %-22s %14.6g %14.6g %14.6g %4d %7.2f%% %5.1f%%\n",
			row.Workload, row.Def.Name, row.Median, row.Q1, row.Q3, row.Runs, 100*row.Spread, 100*row.Def.Bound)
	}
	failed, attempted := 0, 0
	for _, r := range file.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	fmt.Fprintf(out, "failed_frac %g (%d of %d operations over %d runs)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted, len(file.Runs))
}

// summaryRow is one (workload, metric) pairing across a file's runs.
type summaryRow struct {
	Workload       string
	Def            metricDef
	Median, Q1, Q3 float64
	Spread         float64
	Runs           int
}

// summaryRows reduces a results file to rows, in workload then table
// order: median and quartiles of each metric across the file's runs of
// a workload, as the acceptance check takes them. One run has no
// spread; use -runs 10.
func summaryRows(file resultsFile, traced bool) []summaryRow {
	table := endToEnd
	if traced {
		table = perLayer
	}
	byWorkload := make(map[string][]*runResult)
	var order []string
	for _, r := range file.Runs {
		if r.Trace != traced {
			continue
		}
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	var rows []summaryRow
	for _, name := range order {
		for _, d := range table {
			var vals []float64
			for _, r := range byWorkload[name] {
				if m, ok := r.Metrics[d.Name]; ok {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			s := sortedCopy(vals)
			row := summaryRow{Workload: name, Def: d, Runs: len(vals),
				Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
			if row.Median != 0 {
				row.Spread = (row.Q3 - row.Q1) / row.Median
			}
			rows = append(rows, row)
		}
	}
	return rows
}
