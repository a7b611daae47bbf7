// Command benchgate is the benchmark-regression gate behind the
// bench-regression CI job. It parses `go test -bench` output, reduces
// each benchmark's samples to the median ns/op (benchstat-style: the
// median is robust to scheduler noise across -count repetitions), and
// either writes a baseline JSON or compares against a committed one.
//
// Comparison rule: over every benchmark matching -gate that appears in
// both the baseline and the new run, compute the per-benchmark ratio
// new/old and fail (exit 1) when the geometric mean of the ratios
// exceeds 1 + threshold%. A geomean over the gated set keeps one noisy
// benchmark from failing the build while still catching a real
// regression spread across the suite. The gated set is defaultGate
// below — the one copy of the list; the Makefile and CI pass no -gate.
// The regexp is unanchored, so 'MachineStep' covers both the saturated
// BenchmarkMachineStep sweep (including the paper-scale 602x595 entry)
// and BenchmarkMachineStepIdle, the idle-tiles-are-free benchmark of
// the event-driven core scheduler.
//
// Typical use (see Makefile and .github/workflows/ci.yml):
//
//	go test -short -run '^$' -bench . -benchtime 3x -count 6 . > bench.txt
//	go run ./cmd/benchgate -input bench.txt -write BENCH_BASELINE.json   # refresh baseline
//	go run ./cmd/benchgate -input bench.txt -baseline BENCH_BASELINE.json -threshold 15   # gate a change
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference.
type Baseline struct {
	Note       string                `json:"note,omitempty"`
	GoVersion  string                `json:"go,omitempty"`
	GOOS       string                `json:"goos,omitempty"`
	GOARCH     string                `json:"goarch,omitempty"`
	CPU        string                `json:"cpu,omitempty"`
	Benchmarks map[string]*BenchStat `json:"benchmarks"`
}

// BenchStat summarizes one benchmark's samples.
type BenchStat struct {
	NsPerOp float64 `json:"ns_per_op"`
	Samples int     `json:"samples"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkFabricStep/128x128/sharded-8   3   1874130 ns/op   65336 words-moved/cycle
//
// The trailing -8 is GOMAXPROCS; it is stripped so baselines transfer
// between hosts with different core counts. Single-core hosts emit no
// suffix at all, which is why gated benchmark sub-names must never end
// in "-<digits>" themselves — the strip would eat the legitimate tail
// on one side of the comparison (bench_test.go uses "sharded", not
// "sharded-8", for exactly this reason).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func parse(path string) (map[string][]float64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	samples := make(map[string][]float64)
	cpu := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = after
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		samples[m[1]] = append(samples[m[1]], ns)
	}
	return samples, cpu, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func reduce(samples map[string][]float64) map[string]*BenchStat {
	out := make(map[string]*BenchStat, len(samples))
	for name, xs := range samples {
		out[name] = &BenchStat{NsPerOp: median(xs), Samples: len(xs)}
	}
	return out
}

func writeJSON(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// defaultGate names the gated benchmarks. Adding one means adding it
// here and regenerating BENCH_BASELINE.json (make bench-baseline).
const defaultGate = "Benchmark(FabricStep|MachineStep|MemOpStep|FP16|SpMV2DMachine|SpMV3D_WaferKernel|StencilApply|ExchangeReplay|Cavity2DWSEIteration|MultiWaferIteration|Snapshot|ServiceSolve|PaperScaleSolve)"

func main() {
	var (
		input     = flag.String("input", "", "go test -bench output to parse (required)")
		write     = flag.String("write", "", "write a fresh baseline JSON to this path and exit")
		baseline  = flag.String("baseline", "", "committed baseline JSON to gate against")
		gate      = flag.String("gate", defaultGate, "regexp of benchmark names the gate applies to")
		threshold = flag.Float64("threshold", 15, "max allowed geomean slowdown, percent")
		out       = flag.String("out", "", "also write the new run's summary JSON here (artifact upload)")
	)
	flag.Parse()
	if *input == "" || (*write == "" && *baseline == "") {
		fmt.Fprintln(os.Stderr, "usage: benchgate -input bench.txt (-write baseline.json | -baseline baseline.json [-gate re] [-threshold pct] [-out new.json])")
		os.Exit(2)
	}
	if env := os.Getenv("BENCH_GATE_THRESHOLD"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: bad BENCH_GATE_THRESHOLD %q: %v\n", env, err)
			os.Exit(2)
		}
		*threshold = v
	}

	samples, cpu, err := parse(*input)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(samples) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results in %s\n", *input)
		os.Exit(2)
	}
	cur := &Baseline{
		Note:      "Benchmark baseline for the bench-regression CI gate. Regenerate with `make bench-baseline` on the reference runner after intentional performance changes.",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpu,
		Benchmarks: reduce(samples),
	}

	if *write != "" {
		if err := writeJSON(*write, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *write, len(cur.Benchmarks))
		return
	}

	if *out != "" {
		if err := writeJSON(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	gateRE, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if gateRE.MatchString(name) && base.Benchmarks[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no gated benchmarks shared with the baseline (gate %q) — refusing to pass vacuously\n", *gate)
		os.Exit(1)
	}

	logSum := 0.0
	fmt.Printf("%-52s %14s %14s %9s\n", "benchmark", "baseline ns/op", "new ns/op", "delta")
	for _, name := range names {
		old, now := base.Benchmarks[name].NsPerOp, cur.Benchmarks[name].NsPerOp
		ratio := now / old
		logSum += math.Log(ratio)
		fmt.Printf("%-52s %14.0f %14.0f %+8.1f%%\n", name, old, now, (ratio-1)*100)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	limit := 1 + *threshold/100
	fmt.Printf("\ngeomean ratio over %d gated benchmarks: %.3f (limit %.3f)\n", len(names), geomean, limit)
	if geomean > limit {
		fmt.Printf("FAIL: geomean slowdown %.1f%% exceeds the %.0f%% threshold\n", (geomean-1)*100, *threshold)
		os.Exit(1)
	}
	fmt.Println("PASS: no benchmark regression beyond threshold")
}
