package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestParseFlagsRejects is the flag contract CI's shell loop used to
// check one `go run` at a time: every bad invocation fails in
// parseFlags with a message naming the flag, before anything is built.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-backend wse -block 0", "-block must be positive"},
		{"-backend wse -n 8 -block 3", "does not tile"},
		{"-backend bogus", `unknown backend "bogus"`},
		{"-dim 4", "unsupported -dim=4"},
		{"-dim 3 -backend wse", `the 3D cavity has no "wse" backend`},
		{"-n 0", "-n and -iters must be positive"},
		{"-iters -1", "-n and -iters must be positive"},
		{"-nosuchflag", "flag provided but not defined"},
		{"-n eight", "invalid value"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("cavity %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("cavity -h: err = %v, want flag.ErrHelp", err)
	}
}

// TestParseFlagsAccepts: the defaults, the wafer backend's blocking, and
// the host-only 3D cavity (which ignores -block).
func TestParseFlagsAccepts(t *testing.T) {
	if c, err := parseFlags(nil); err != nil || c.dim != 2 || c.n != 16 || c.backend != "host" || c.iters != 40 {
		t.Errorf("defaults: %+v, err %v", c, err)
	}
	if c, err := parseFlags(strings.Fields("-backend=wse -n 8 -block 2 -workers 4 -iters 1")); err != nil ||
		c.backend != "wse" || c.n/c.block != 4 || c.workers != 4 {
		t.Errorf("wafer cavity: %+v, err %v", c, err)
	}
	if _, err := parseFlags(strings.Fields("-dim 3 -n 7 -block 0")); err != nil {
		t.Errorf("3D host cavity: %v", err)
	}
	if _, err := parseFlags(strings.Fields("-n 7 -block 0")); err != nil {
		t.Errorf("2D host cavity with an unused -block: %v", err)
	}
}
