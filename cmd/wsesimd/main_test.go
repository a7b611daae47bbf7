package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestParseFlagsRejects is the flag contract CI's shell loop used to
// check one `go run` at a time: every bad invocation fails in
// parseFlags with a message naming the flag, before the daemon starts.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-workers 0", "-workers, -queue-depth, -max-idle-machines and -suspend-every must be positive"},
		{"-suspend-every 0", "-suspend-every must be positive"},
		{"-queue-depth -1", "-queue-depth"},
		{"-max-idle-machines 0", "-max-idle-machines"},
		{"-retries -1", "-retries must be >= 0"},
		{"-breaker-threshold 0", "-breaker-threshold and -breaker-cooldown must be positive"},
		{"-breaker-cooldown 0s", "-breaker-cooldown must be positive"},
		{"-max-body 0", "-max-body must be positive"},
		{"-job-ttl -1s", "-job-ttl must be >= 0"},
		{"-inject-spool-faults garbage", "-inject-spool-faults: faultinject"},
		{"-nosuchflag", "flag provided but not defined"},
		{"-workers four", "invalid value"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("wsesimd %s: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("wsesimd -h: err = %v, want flag.ErrHelp", err)
	}
}

// TestParseFlagsAccepts: the defaults reach service.Config unchanged,
// and a fault spec becomes the spool's filesystem.
func TestParseFlagsAccepts(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != "127.0.0.1:8844" || c.drainTimeout != time.Minute || c.svc.Workers != 4 || c.svc.QueueDepth != 256 ||
		c.svc.MaxRetries != 2 || c.svc.MaxBody != 1<<20 || c.svc.FS != nil {
		t.Errorf("defaults: %+v", c)
	}
	c, err = parseFlags(strings.Fields("-addr :0 -spool /tmp/s -workers 2 -job-ttl 3s -inject-spool-faults write::6:3:fail"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.svc.FS.(*faultinject.FaultFS); !ok || c.addr != ":0" || c.svc.SpoolDir != "/tmp/s" ||
		c.svc.Workers != 2 || c.svc.DefaultTTL != 3*time.Second {
		t.Errorf("explicit flags: %+v", c)
	}
}
