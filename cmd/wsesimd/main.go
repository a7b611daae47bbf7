// Command wsesimd is the persistent solver daemon: it owns a pool of
// warm, pre-built simulated machines behind an HTTP/JSON job API
// (internal/service). Clients POST deterministic job specs, poll or
// stream residual histories, and fetch solutions; the daemon reuses
// machines across same-shape jobs through a keyed cache, spools every
// job durably, and on SIGTERM checkpoints in-flight wafer solves so a
// restart resumes them bit-identically.
//
// Typical session:
//
//	wsesimd -addr :8844 -spool /var/lib/wsesimd &
//	curl -s localhost:8844/v1/jobs -d '{"problem":"momentum","nx":8,"ny":8,"nz":16,"max_iter":20}'
//	curl -s localhost:8844/v1/jobs/j000001
//	curl -s localhost:8844/v1/jobs/j000001/solution
//	curl -s localhost:8844/metrics
//
// See docs/ARCHITECTURE.md, "Service layer".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
)

// config is one validated invocation.
type config struct {
	addr         string
	drainTimeout time.Duration
	faults       string // -inject-spool-faults, echoed in a startup warning
	svc          service.Config
}

// flagSet declares wsesimd's flags over c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("wsesimd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8844", "listen address")
	fs.StringVar(&c.svc.SpoolDir, "spool", "", "durable job spool directory (empty: in-memory only, no crash recovery)")
	fs.IntVar(&c.svc.Workers, "workers", 4, "solve worker pool size (concurrent jobs)")
	fs.IntVar(&c.svc.QueueDepth, "queue-depth", 256, "pending-job queue bound; submissions beyond it get 503")
	fs.IntVar(&c.svc.MaxIdleMachines, "max-idle-machines", 8, "warm-machine cache bound across all shapes")
	fs.IntVar(&c.svc.SuspendEvery, "suspend-every", 4, "checkpoint cadence (iterations) for suspending wafer jobs at shutdown")
	fs.IntVar(&c.svc.MaxRetries, "retries", 2, "solve retries before a job fails")
	fs.DurationVar(&c.svc.RetryBackoff, "retry-backoff", 100*time.Millisecond, "delay before the first retry, doubling per attempt")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 60*time.Second, "max wait for in-flight jobs to finish or suspend at shutdown")
	fs.DurationVar(&c.svc.DefaultTTL, "job-ttl", 0, "default job lifetime from submission when the spec has no timeout_ms (0: none)")
	fs.IntVar(&c.svc.BreakerThreshold, "breaker-threshold", 3, "consecutive backend failures that trip its circuit breaker")
	fs.DurationVar(&c.svc.BreakerCooldown, "breaker-cooldown", 5*time.Second, "how long a tripped circuit stays open before a half-open probe")
	fs.Int64Var(&c.svc.MaxBody, "max-body", 1<<20, "POST /v1/jobs request body cap in bytes")
	fs.StringVar(&c.faults, "inject-spool-faults", "", "TESTING ONLY: comma-separated op:substr:skip:times:mode spool fault rules (see internal/faultinject)")
	return fs
}

// parseFlags parses and validates one command line, so a bad
// invocation fails before the daemon starts. It does no I/O and prints
// nothing: main reports the error with the usage text (flag.ErrHelp for
// -h).
func parseFlags(args []string) (config, error) {
	var c config
	fs := flagSet(&c)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	svc := &c.svc
	switch {
	case svc.Workers <= 0 || svc.QueueDepth <= 0 || svc.MaxIdleMachines <= 0 || svc.SuspendEvery <= 0:
		return c, errors.New("-workers, -queue-depth, -max-idle-machines and -suspend-every must be positive")
	case svc.MaxRetries < 0:
		return c, fmt.Errorf("-retries must be >= 0; got %d", svc.MaxRetries)
	case svc.BreakerThreshold <= 0 || svc.BreakerCooldown <= 0:
		return c, errors.New("-breaker-threshold and -breaker-cooldown must be positive")
	case svc.MaxBody <= 0:
		return c, fmt.Errorf("-max-body must be positive; got %d", svc.MaxBody)
	case svc.DefaultTTL < 0:
		return c, fmt.Errorf("-job-ttl must be >= 0; got %v", svc.DefaultTTL)
	}
	if c.faults != "" {
		rules, err := faultinject.Parse(c.faults)
		if err != nil {
			return c, fmt.Errorf("-inject-spool-faults: %w", err)
		}
		svc.FS = faultinject.NewFaultFS(nil, rules...)
	}
	return c, nil
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
		fmt.Fprintf(os.Stderr, "wsesimd: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	if c.faults != "" {
		log.Printf("wsesimd: FAULT INJECTION ACTIVE on the spool: %s", c.faults)
	}

	s, err := service.New(c.svc)
	if err != nil {
		log.Fatalf("wsesimd: %v", err)
	}
	s.Start()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		log.Fatalf("wsesimd: %v", err)
	}
	// Slow-client protection. No WriteTimeout: /v1/jobs/{id}/stream
	// legitimately writes for the lifetime of a solve; response writes
	// are bounded instead by the OS socket buffers plus IdleTimeout.
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("wsesimd: %v", err)
		}
	}()
	log.Printf("wsesimd: listening on %s (spool %q, %d workers)", ln.Addr(), c.svc.SpoolDir, c.svc.Workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("wsesimd: draining (in-flight wafer solves suspend at their next checkpoint)")

	ctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("wsesimd: drain incomplete: %v", err)
		os.Exit(1)
	}
	log.Printf("wsesimd: stopped")
}
