// Command repro regenerates every table and figure of the paper and
// prints paper-vs-measured comparisons. Run with no arguments for the
// full suite, or select one experiment:
//
//	-exp name    table1 | headline | allreduce | paperallreduce |
//	             multiwafer | fig7 | fig8 | fig9 | table2 | spmv2d |
//	             cavity2d | fig1 | memory | routing | all
//	-fig9n n     Figure 9 mesh scale (default 25 => 25×100×25;
//	             the paper's mesh is 100×400×100, i.e. -fig9n 100)
//
// The default "all" suite skips paperallreduce (it cycle-simulates the
// full 602×595 wafer, ~15 s). See cmd/README.md and docs/RESULTS.md
// for what each experiment measures and the paper numbers it targets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// config is one validated invocation.
type config struct {
	exp   string
	fig9N int
}

// flagSet declares repro's flags over c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.StringVar(&c.exp, "exp", "all",
		"experiment: table1|headline|allreduce|paperallreduce|multiwafer|fig7|fig8|fig9|table2|spmv2d|cavity2d|fig1|memory|routing|all")
	fs.IntVar(&c.fig9N, "fig9n", 25, "fig9 mesh scale: runs 25×100×25 by default (paper: 100×400×100)")
	return fs
}

// experiment is one selectable report.
type experiment struct {
	name string
	fn   func() string
}

// experiments lists every report in suite order.
func experiments(fig9N int) []experiment {
	return []experiment{
		{"table1", core.Table1Report},
		{"headline", core.HeadlineReport},
		{"allreduce", core.AllReduceReport},
		// Cycle-simulates the full 602×595 wafer (~15 s); selectable
		// explicitly, skipped by the default "all" suite.
		{"paperallreduce", core.PaperAllReduceReport},
		// Cycle-simulates a small mesh across 1/2/4-wafer grids, then
		// projects the cluster-of-wafers backend to paper scale.
		{"multiwafer", core.MultiWaferReport},
		{"fig7", core.ScalingReport}, // figs 7+8 share the report
		{"fig8", core.ScalingReport},
		{"fig9", func() string { return core.Fig9Report(fig9N, fig9N*4, fig9N, 15) }},
		{"table2", core.Table2Report},
		{"spmv2d", core.SpMV2DReport},
		// Cycle-simulates the Table II cavity's pressure solves on a
		// 8×8 wafer fabric (seconds); cmd/cavity -backend=wse scales the
		// same path to the 128×128 fabric.
		{"cavity2d", core.Cavity2DReport},
		{"fig1", core.Fig1Report},
		{"memory", core.MemoryReport},
		{"routing", core.RoutingReport},
	}
}

// parseFlags parses and validates one command line. It does no I/O and
// prints nothing: main reports the error with the usage text
// (flag.ErrHelp for -h).
func parseFlags(args []string) (config, error) {
	var c config
	fs := flagSet(&c)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.fig9N <= 0 {
		return c, fmt.Errorf("-fig9n must be positive; got %d", c.fig9N)
	}
	if c.exp == "all" {
		return c, nil
	}
	for _, e := range experiments(c.fig9N) {
		if e.name == c.exp {
			return c, nil
		}
	}
	return c, fmt.Errorf("unknown experiment %q", c.exp)
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
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	for _, r := range experiments(c.fig9N) {
		if c.exp == "all" {
			// The scaling report covers both figures, and the
			// paper-scale run is opt-in (see the flag help).
			if r.name == "fig8" || r.name == "paperallreduce" {
				continue
			}
		} else if r.name != c.exp {
			continue
		}
		fmt.Println("==============================================================")
		fmt.Println(r.fn())
	}
}
