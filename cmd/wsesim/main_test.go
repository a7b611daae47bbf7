package main

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/stencil"
)

// TestParseFlagsRejects is the flag contract CI's shell loop used to
// check one `go run` at a time: every bad invocation fails in
// parseFlags with a message naming the flag, before anything is built.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-problem bogus", `unknown problem "bogus"`},
		{"-nz 7", "-nz must be even"},
		{"-nz 0", "-nz must be positive"},
		{"-nx 0", "mesh dimensions must be positive"},
		{"-iters 0", "-iters must be positive"},
		{"-wafers 2x", "bad -wafers"},
		{"-wafers 2x1 -checkpoint ck.bin", "checkpoint/resume are single-wafer only"},
		{"-engine bogus", `unknown engine "bogus"`},
		{"-engine batched -wafers 2x1", "-engine selects the single-wafer"},
		{"-engine batched -workers 4", "already selects the sharded engine"},
		{"-host", "-host applies to the stencil-compiled kernels"},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -engine batched -host", "-engine selects the single-wafer"},
		{"-kernel bogus", `unknown -kernel "bogus"`},
		{"-kernel seismic25 -nx 3 -ny 3 -nz 7", "-nz must be even"},
		{"-kernel seismic25 -nx 3 -ny 3 -nz 6 -shift -1", "-shift must be positive"},
		{"-kernel seismic25 -nx 3 -ny 3 -nz 6 -wafers 2x1", "-wafers runs only the bicgstab kernel"},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -boundary periodic", "periodic runs on the host only"},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -boundary bogus", `unknown boundary "bogus"`},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -lambda 0", "-lambda must be positive"},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -steps 0", "-steps must be positive"},
		{"-kernel heat -nx 3 -ny 3 -nz 4 -checkpoint ck.bin", "does not checkpoint"},
		{"-kernel heat2d -nx 4 -ny 4 -resume ck.bin", "does not checkpoint"},
		{"-kernel heat2d -nx 4 -ny 4 -block 3", "-block must be even"},
		{"-kernel heat2d -nx 7 -ny 4 -block 2", "does not tile"},
		{"-nosuchflag", "flag provided but not defined"},
		{"-nx seven", "invalid value"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("wsesim %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("wsesim -h: err = %v, want flag.ErrHelp", err)
	}
}

// TestParseFlagsAccepts: what the flags derive — backend, engine versus
// worker pool, boundary, checkpoint wiring.
func TestParseFlagsAccepts(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.kernel != "bicgstab" || c.opts.Backend != core.Wafer || c.opts.MaxIter != 20 || c.opts.Wafer.Checkpoint != nil {
		t.Errorf("defaults: kernel %q, options %+v", c.kernel, c.opts)
	}
	if c, err = parseFlags(strings.Fields("-wafers 2x1 -workers 3")); err != nil ||
		c.opts.Backend != core.MultiWafer || c.opts.MultiWafer.Grid.W != 2 || c.opts.MultiWafer.Workers != 3 {
		t.Errorf("-wafers 2x1: options %+v, err %v", c.opts, err)
	}
	// An explicit engine wins over the defaulted worker pool.
	if c, err = parseFlags(strings.Fields("-engine fastforward")); err != nil ||
		c.opts.Wafer.Engine != "fastforward" || c.opts.Wafer.Workers != 1 {
		t.Errorf("-engine fastforward: wafer options %+v, err %v", c.opts.Wafer, err)
	}
	if c, err = parseFlags(strings.Fields("-kernel heat -nz 4 -boundary periodic -host")); err != nil ||
		c.boundary != stencil.Periodic || c.opts.Backend != core.Local {
		t.Errorf("host periodic heat: boundary %v, backend %v, err %v", c.boundary, c.opts.Backend, err)
	}
	// heat2d has no Z extent to check, and on the host no block either.
	if _, err = parseFlags(strings.Fields("-kernel heat2d -nx 5 -ny 3 -nz 7 -host")); err != nil {
		t.Errorf("host heat2d on a 5×3 mesh: %v", err)
	}
	if c, err = parseFlags(strings.Fields("-checkpoint ck.bin -checkpoint-every 4 -resume ck.bin")); err != nil ||
		c.opts.Wafer.CheckpointEvery != 4 || c.opts.Wafer.Checkpoint == nil || c.resumePath != "ck.bin" {
		t.Errorf("checkpoint flags: wafer options %+v, err %v", c.opts.Wafer, err)
	}
}

// TestJobAndCLIBuildTheSameSystem: a {"problem":"momentum"} job and
// `wsesim -problem momentum` on the same mesh go through one generator
// with one seed, so their right-hand sides are bit-equal.
func TestJobAndCLIBuildTheSameSystem(t *testing.T) {
	c, err := parseFlags(strings.Fields("-nx 3 -ny 4 -nz 6 -problem momentum"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := bicgstabProblem(c)
	if err != nil {
		t.Fatal(err)
	}
	var spec service.JobSpec
	if err := json.Unmarshal([]byte(`{"problem":"momentum","nx":3,"ny":4,"nz":6}`), &spec); err != nil {
		t.Fatal(err)
	}
	job, err := spec.BuildProblem()
	if err != nil {
		t.Fatal(err)
	}
	if len(job.B) != len(cli.B) || len(cli.B) != 72 {
		t.Fatalf("right-hand sides of %d and %d entries, want 72", len(job.B), len(cli.B))
	}
	for i := range cli.B {
		if math.Float64bits(job.B[i]) != math.Float64bits(cli.B[i]) {
			t.Fatalf("B[%d]: job %.17g, CLI %.17g", i, job.B[i], cli.B[i])
		}
	}
}
