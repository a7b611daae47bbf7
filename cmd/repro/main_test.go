package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestParseFlags: bad invocations fail in parseFlags with a message
// naming the flag, before any experiment runs; every listed experiment
// name, and "all", is accepted.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-exp nope", `unknown experiment "nope"`},
		{"-fig9n 0", "-fig9n must be positive"},
		{"-exp fig9 -fig9n -3", "-fig9n must be positive"},
		{"-nosuchflag", "flag provided but not defined"},
		{"-fig9n many", "invalid value"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("repro %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("repro -h: err = %v, want flag.ErrHelp", err)
	}

	if c, err := parseFlags(nil); err != nil || c.exp != "all" || c.fig9N != 25 {
		t.Errorf("defaults: %+v, err %v", c, err)
	}
	usage := flagSet(new(config)).Lookup("exp").Usage
	for _, e := range experiments(25) {
		if c, err := parseFlags([]string{"-exp", e.name}); err != nil || c.exp != e.name {
			t.Errorf("-exp %s: %+v, err %v", e.name, c, err)
		}
		if !strings.Contains(usage, e.name+"|") {
			t.Errorf("-exp usage does not list %q", e.name)
		}
	}
}
