package service

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestServiceMetricsGolden drives a real server through every outcome
// it reaches cheaply — done, retried then done, failed, canceled while
// queued, expired in the queue, a breaker trip and a host fallback —
// and holds every per-backend /metrics counter line to a golden, in
// order. Uptime, qps and the latency buckets and sum depend on the
// clock and are left out.
func TestServiceMetricsGolden(t *testing.T) {
	s, err := New(Config{
		Workers: 1, SpoolDir: t.TempDir(),
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.injectFault = func(spec JobSpec, attempt int) error {
		if spec.Backend == "wafer" || (spec.Seed == 2 && attempt == 1) {
			return errors.New("synthetic fault")
		}
		return nil
	}
	local := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}
	wafer := JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 4}
	submit := func(spec JobSpec) string {
		t.Helper()
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	want := func(id string, state JobState) {
		t.Helper()
		if v := waitTerminal(t, s, id, 60*time.Second); v.State != state {
			t.Fatalf("job %s: state %s (error %q), want %s", id, v.State, v.Error, state)
		}
	}

	// Before any worker exists: one job canceled in the queue, one whose
	// deadline passes there.
	canceled := submit(local)
	if _, err := s.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	ttl := local
	ttl.TimeoutMS = 1
	expired := submit(ttl)
	time.Sleep(10 * time.Millisecond)
	s.Start()
	want(canceled, StateCanceled)
	want(expired, StateExpired)

	want(submit(local), StateDone)
	retried := local
	retried.Seed = 2 // faults on its first attempt only
	want(submit(retried), StateDone)
	// Two failed wafer attempts trip the wafer breaker; the fallback job
	// then completes on the host, and a job without fallback is refused
	// on both of its attempts.
	want(submit(wafer), StateFailed)
	fallback := wafer
	fallback.AllowFallback = true
	want(submit(fallback), StateDone)
	want(submit(wafer), StateFailed)
	// Parking the pool waits out the last job's bookkeeping.
	shutdown(t, s)

	var buf strings.Builder
	s.metrics.write(&buf, 0, 0, 0, 0)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "{backend=") && !strings.Contains(line, "_qps") &&
			!strings.Contains(line, "_bucket") && !strings.Contains(line, "_sum") {
			got = append(got, line)
		}
	}
	golden := []string{
		`wsesimd_jobs_submitted_total{backend="local"} 4`,
		`wsesimd_jobs_completed_total{backend="local"} 2`,
		`wsesimd_jobs_failed_total{backend="local"} 0`,
		`wsesimd_jobs_retried_total{backend="local"} 1`,
		`wsesimd_jobs_suspended_total{backend="local"} 0`,
		`wsesimd_jobs_canceled_total{backend="local"} 1`,
		`wsesimd_jobs_expired_total{backend="local"} 1`,
		`wsesimd_fallback_solves_total{backend="local"} 0`,
		`wsesimd_breaker_trips_total{backend="local"} 0`,
		`wsesimd_solve_latency_seconds_count{backend="local"} 2`,
		`wsesimd_jobs_submitted_total{backend="wafer"} 3`,
		`wsesimd_jobs_completed_total{backend="wafer"} 1`,
		`wsesimd_jobs_failed_total{backend="wafer"} 2`,
		`wsesimd_jobs_retried_total{backend="wafer"} 2`,
		`wsesimd_jobs_suspended_total{backend="wafer"} 0`,
		`wsesimd_jobs_canceled_total{backend="wafer"} 0`,
		`wsesimd_jobs_expired_total{backend="wafer"} 0`,
		`wsesimd_fallback_solves_total{backend="wafer"} 1`,
		`wsesimd_breaker_trips_total{backend="wafer"} 1`,
		`wsesimd_solve_latency_seconds_count{backend="wafer"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(golden, "\n") {
		t.Errorf("/metrics counters:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(golden, "\n"))
	}
}
