// Command ssbench load-tests a running wsesimd daemon and reports
// throughput and latency, in the style of storage-service benchmarks:
// a full-write mix (every operation submits a solve and polls it to
// completion) or a mixed read/write mix (mostly status reads of
// finished jobs against a 20% submit stream, the cache-friendly
// profile).
//
// With -cancel-frac a share of the submissions DELETE their job right
// after posting it — the chaos mix that exercises cooperative
// cancellation under concurrent load.
//
//	wsesimd -addr :8844 &
//	ssbench -addr http://127.0.0.1:8844 -mix full-write -ops 64 -c 8
//	ssbench -addr http://127.0.0.1:8844 -mix mixed -ops 256 -c 8
//	ssbench -addr http://127.0.0.1:8844 -mix mixed -cancel-frac 0.25 -ops 64 -c 8
//
// The same engine (internal/service.RunLoad) backs the root
// BenchmarkService entries, so the QPS and latency medians land in
// BENCH_BASELINE.json under the bench-regression gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/service"
)

// config is one validated invocation.
type config struct {
	mix  string // -mix, parsed into load.Mix
	load service.LoadOptions
}

// flagSet declares ssbench's flags over c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	l := &c.load
	fs.StringVar(&l.BaseURL, "addr", "http://127.0.0.1:8844", "wsesimd base URL")
	fs.StringVar(&c.mix, "mix", "full-write", "operation mix: full-write | mixed")
	fs.IntVar(&l.Ops, "ops", 64, "total operations across all workers")
	fs.IntVar(&l.Concurrency, "c", 4, "concurrent client workers")
	fs.Float64Var(&l.WriteFraction, "write-fraction", 0.2, "share of writes under -mix mixed")
	fs.Float64Var(&l.CancelFraction, "cancel-frac", 0, "share of writes that DELETE their job right after submitting (chaos mix)")
	fs.DurationVar(&l.PollInterval, "poll", 2*time.Millisecond, "status poll interval while waiting for a solve")

	fs.StringVar(&l.Spec.Problem, "problem", "momentum", "submitted job: problem generator (poisson|momentum|random)")
	fs.IntVar(&l.Spec.NX, "nx", 4, "submitted job: mesh width")
	fs.IntVar(&l.Spec.NY, "ny", 4, "submitted job: mesh height")
	fs.IntVar(&l.Spec.NZ, "nz", 8, "submitted job: Z points (even on simulated backends)")
	fs.StringVar(&l.Spec.Backend, "backend", "wafer", "submitted job: backend (local|wafer|cluster|multiwafer)")
	fs.IntVar(&l.Spec.MaxIter, "iters", 4, "submitted job: max iterations")
	fs.StringVar(&l.Spec.Grid, "grid", "", "submitted job: wafer grid WxH (multiwafer backend)")
	return fs
}

// parseFlags parses and validates one command line, so a bad
// invocation fails before any request is sent. It does no I/O and
// prints nothing: main reports the error with the usage text
// (flag.ErrHelp for -h).
func parseFlags(args []string) (config, error) {
	var c config
	fs := flagSet(&c)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	l := &c.load
	var err error
	if l.Mix, err = service.ParseLoadMix(c.mix); err != nil {
		return c, err
	}
	switch {
	case l.Ops <= 0 || l.Concurrency <= 0:
		return c, errors.New("-ops and -c must be positive")
	case l.WriteFraction <= 0 || l.WriteFraction > 1:
		return c, fmt.Errorf("-write-fraction must be in (0, 1]; got %v", l.WriteFraction)
	case l.CancelFraction < 0 || l.CancelFraction >= 1:
		return c, fmt.Errorf("-cancel-frac must be in [0, 1); got %v", l.CancelFraction)
	}
	return c, l.Spec.Validate()
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fs := flagSet(new(config))
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stdout)
			fs.Usage()
			return
		}
		fmt.Fprintf(os.Stderr, "ssbench: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	st, err := service.RunLoad(c.load)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssbench: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mix %s: %d writes + %d reads + %d cancels in %v  (%.1f ops/s)\n",
		c.load.Mix, st.Writes.Count, st.Reads.Count, st.Cancels.Count, st.Elapsed.Round(time.Millisecond), st.QPS)
	printClass := func(name string, l service.LatencySummary) {
		if l.Count == 0 {
			return
		}
		fmt.Printf("%-18s avg %-10v p50 %-10v p95 %-10v max %v\n",
			name+" latency:", l.Avg.Round(time.Microsecond), l.P50.Round(time.Microsecond),
			l.P95.Round(time.Microsecond), l.Max.Round(time.Microsecond))
	}
	printClass("solve (write)", st.Writes)
	printClass("status (read)", st.Reads)
	printClass("cancel", st.Cancels)
}
