package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestParseFlagsRejects is the flag contract CI's shell loop used to
// check one `go run` at a time: every bad invocation fails in
// parseFlags, before any request is sent.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-mix bogus", `unknown load mix "bogus"`},
		{"-ops 0", "-ops and -c must be positive"},
		{"-c 0", "-ops and -c must be positive"},
		{"-write-fraction 0", "-write-fraction must be in (0, 1]"},
		{"-cancel-frac 1.5", "-cancel-frac must be in [0, 1)"},
		{"-backend wafer -nz 7", "even"},
		{"-nosuchflag", "flag provided but not defined"},
		{"-ops many", "invalid value"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ssbench %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("ssbench -h: err = %v, want flag.ErrHelp", err)
	}
}

// TestParseFlagsAccepts: the defaults, and the chaos mix of
// scripts/chaos_smoke.sh.
func TestParseFlagsAccepts(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if l := c.load; l.Mix != service.MixFullWrite || l.Ops != 64 || l.Concurrency != 4 ||
		l.Spec.Backend != "wafer" || l.Spec.NZ != 8 || l.BaseURL != "http://127.0.0.1:8844" {
		t.Errorf("defaults: %+v", l)
	}
	c, err = parseFlags(strings.Fields("-addr http://127.0.0.1:9 -mix mixed -cancel-frac 0.4 -ops 12 -c 3"))
	if err != nil {
		t.Fatal(err)
	}
	if l := c.load; l.Mix != service.MixReadWrite || l.CancelFraction != 0.4 || l.Ops != 12 || l.Concurrency != 3 {
		t.Errorf("cancel mix: %+v", l)
	}
}
