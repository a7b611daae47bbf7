package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestServiceCancelQueued cancels a job no worker has touched: DELETE
// finalizes it immediately, the terminal state is durable, a second
// DELETE conflicts, and a later worker never runs it.
func TestServiceCancelQueued(t *testing.T) {
	spoolDir := t.TempDir()
	s, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got JobView
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.State != StateCanceled {
		t.Fatalf("DELETE queued job: status %d state %s, want 200 %s", resp.StatusCode, got.State, StateCanceled)
	}

	// The cancellation is durable and final.
	data, err := os.ReadFile(filepath.Join(spoolDir, v.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var spooled JobView
	if err := json.Unmarshal(data, &spooled); err != nil {
		t.Fatal(err)
	}
	if spooled.State != StateCanceled {
		t.Errorf("spooled state %s, want %s", spooled.State, StateCanceled)
	}
	resp2, _ := http.DefaultClient.Do(req)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", resp2.StatusCode)
	}
	if req404, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil); true {
		resp3, _ := http.DefaultClient.Do(req404)
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE unknown job: status %d, want 404", resp3.StatusCode)
		}
	}

	// A worker starting later skips the canceled job.
	s.Start()
	defer shutdown(t, s)
	time.Sleep(50 * time.Millisecond)
	if final := s.getJob(v.ID).view(false); final.State != StateCanceled || final.Attempts != 0 {
		t.Errorf("after start: state %s attempts %d, want canceled with 0 attempts", final.State, final.Attempts)
	}
}

// TestServiceQueueFull: a submission past QueueDepth is rejected, and
// the job it registered is booked failed like any other outcome — its
// record reads "queue full", and it counts as submitted and failed.
func TestServiceQueueFull(t *testing.T) {
	spoolDir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueDepth: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 2}
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, errQueueFull) {
		t.Fatalf("second submit: %v, want %v", err, errQueueFull)
	}
	v := s.getJob("j000002").view(true)
	if v.State != StateFailed || v.Error != "queue full" {
		t.Errorf("rejected job: state %s error %q, want failed %q", v.State, v.Error, "queue full")
	}
	data, err := os.ReadFile(filepath.Join(spoolDir, "j000002.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spooled JobView
	if err := json.Unmarshal(data, &spooled); err != nil {
		t.Fatal(err)
	}
	if spooled.State != StateFailed || spooled.Error != "queue full" {
		t.Errorf("spooled record: state %s error %q, want failed %q", spooled.State, spooled.Error, "queue full")
	}
	var buf strings.Builder
	s.metrics.write(&buf, 0, 0, 0, 0)
	for _, want := range []string{
		`wsesimd_jobs_submitted_total{backend="local"} 2`,
		`wsesimd_jobs_failed_total{backend="local"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestServiceCancelRunning cancels mid-solve on the simulated backends:
// the solve unwinds at an iteration boundary, the job lands in the
// distinct canceled state, and — the machine-consistency half — the
// machine goes back to the warm cache and the next same-shape job reuses
// it to a bit-identical result.
func TestServiceCancelRunning(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"wafer", JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 16, Backend: "wafer", MaxIter: 40}},
		{"multiwafer", JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Backend: "multiwafer", Grid: "2x1", MaxIter: 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Workers: 1, SpoolDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			s.testIterHook = func(j *job, iter int) {
				if iter == 2 && !j.cancelRequested() {
					s.Cancel(j.id)
				}
			}
			s.Start()
			defer shutdown(t, s)

			v, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, s, v.ID, 120*time.Second)
			if final.State != StateCanceled {
				t.Fatalf("state %s (error %q), want %s", final.State, final.Error, StateCanceled)
			}
			if final.Result != nil {
				t.Errorf("canceled job carries a result")
			}

			// The machine the canceled solve was holding is back in the
			// cache and still produces correct bits.
			s.testIterHook = nil
			v2, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			final2 := waitTerminal(t, s, v2.ID, 120*time.Second)
			if final2.State != StateDone {
				t.Fatalf("post-cancel job: state %s, error %q", final2.State, final2.Error)
			}
			assertBitIdentical(t, "post-cancel reuse", final2.Result, directSolve(t, tc.spec))
			if hits, misses := s.CacheStats(); hits < 1 {
				t.Errorf("cache: %d hits / %d misses, want the post-cancel job to reuse the canceled job's machine", hits, misses)
			}
		})
	}
}

// TestServiceDeadline pins the TTL semantics: a spec timeout_ms expires
// the job — in the distinct "expired" terminal state, not canceled or
// failed — whether the deadline passes in the queue or mid-solve, and
// the server's DefaultTTL applies when the spec has none.
func TestServiceDeadline(t *testing.T) {
	t.Run("in-queue", func(t *testing.T) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Submit(JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5, TimeoutMS: 1})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // let the deadline pass before any worker exists
		s.Start()
		defer shutdown(t, s)
		final := waitTerminal(t, s, v.ID, 30*time.Second)
		if final.State != StateExpired {
			t.Fatalf("state %s, want %s", final.State, StateExpired)
		}
		if final.Attempts != 0 || final.Result != nil {
			t.Errorf("expired-in-queue job ran: attempts %d, result %v", final.Attempts, final.Result)
		}
		var buf strings.Builder
		s.metrics.write(&buf, 0, 0, 0, 0)
		if !strings.Contains(buf.String(), `wsesimd_jobs_expired_total{backend="local"} 1`) {
			t.Errorf("/metrics does not count the expiry:\n%s", buf.String())
		}
	})

	t.Run("mid-solve", func(t *testing.T) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Hold every iteration long enough that the deadline lands
		// mid-solve, then check the solve unwound at a boundary.
		s.testIterHook = func(*job, int) { time.Sleep(20 * time.Millisecond) }
		s.Start()
		defer shutdown(t, s)
		v, err := s.Submit(JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 16, Backend: "wafer", MaxIter: 200, TimeoutMS: 30})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, v.ID, 60*time.Second)
		if final.State != StateExpired {
			t.Fatalf("state %s (error %q), want %s", final.State, final.Error, StateExpired)
		}
		if !strings.Contains(final.Error, "deadline") {
			t.Errorf("error %q does not mention the deadline", final.Error)
		}
	})

	t.Run("default-ttl", func(t *testing.T) {
		s, err := New(Config{Workers: 1, DefaultTTL: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Submit(JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		s.Start()
		defer shutdown(t, s)
		final := waitTerminal(t, s, v.ID, 30*time.Second)
		if final.State != StateExpired {
			t.Fatalf("state %s, want %s", final.State, StateExpired)
		}
	})
}

// TestServiceBreakerFallback drives a backend into repeated failure:
// the circuit trips at the threshold, jobs that allow it degrade to the
// host fallback (bit-identical for the multiwafer backend), jobs that
// don't fail with the breaker-open error, and after the cooldown a
// half-open probe closes the circuit again.
func TestServiceBreakerFallback(t *testing.T) {
	s, err := New(Config{
		Workers: 1, MaxRetries: -1, // no retries: each failure is terminal
		BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := true
	s.injectFault = func(spec JobSpec, attempt int) error {
		if broken && spec.Backend == "multiwafer" {
			return errors.New("synthetic backend outage")
		}
		return nil
	}
	s.Start()
	defer shutdown(t, s)

	mwSpec := JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Backend: "multiwafer", Grid: "2x1", MaxIter: 4}
	submitWait := func(spec JobSpec) JobView {
		t.Helper()
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, s, v.ID, 120*time.Second)
	}

	// Two consecutive failures trip the circuit.
	for i := 0; i < 2; i++ {
		if final := submitWait(mwSpec); final.State != StateFailed {
			t.Fatalf("outage job %d: state %s, want failed", i, final.State)
		}
	}
	if !s.breaker.open("multiwafer") {
		t.Fatal("breaker not open after two consecutive failures")
	}

	// Open circuit + allow_fallback: the job completes on the host,
	// bit-identical to the simulated solve, marked as a fallback.
	fb := mwSpec
	fb.AllowFallback = true
	final := submitWait(fb)
	if final.State != StateDone {
		t.Fatalf("fallback job: state %s, error %q", final.State, final.Error)
	}
	if final.Result == nil || !final.Result.Fallback {
		t.Fatal("fallback result not marked Fallback")
	}
	if got := final.Result.Telemetry.Backend; got != "local" {
		t.Errorf("fallback telemetry backend %q, want local", got)
	}
	assertBitIdentical(t, "fallback vs multiwafer", final.Result, directSolve(t, mwSpec))

	// Open circuit without fallback: refused up front, never solved.
	if final := submitWait(mwSpec); final.State != StateFailed || !strings.Contains(final.Error, "circuit breaker") {
		t.Fatalf("no-fallback job under open breaker: state %s error %q", final.State, final.Error)
	}

	var buf strings.Builder
	s.metrics.write(&buf, 0, 0, 0, 0)
	for _, want := range []string{
		`wsesimd_breaker_trips_total{backend="multiwafer"} 1`,
		`wsesimd_fallback_solves_total{backend="multiwafer"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, buf.String())
		}
	}

	// Backend heals; after the cooldown the half-open probe succeeds and
	// the circuit closes.
	broken = false
	time.Sleep(250 * time.Millisecond)
	if final := submitWait(mwSpec); final.State != StateDone {
		t.Fatalf("probe job: state %s, error %q", final.State, final.Error)
	}
	if s.breaker.open("multiwafer") {
		t.Error("breaker still open after a successful probe")
	}
}

// TestBreakerHalfOpen unit-tests the breaker state machine on a fake
// clock: trip at the threshold, refuse while open, admit exactly one
// probe after the cooldown, re-open on probe failure.
func TestBreakerHalfOpen(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Minute)
	b.now = func() time.Time { return now }

	if !b.allow("wafer") {
		t.Fatal("fresh breaker refuses")
	}
	if b.failure("wafer") {
		t.Fatal("first failure tripped below threshold")
	}
	if !b.failure("wafer") {
		t.Fatal("second failure did not trip")
	}
	if b.allow("wafer") {
		t.Fatal("open breaker admitted an attempt")
	}
	if b.allow("multiwafer") != true {
		t.Fatal("breaker state leaked across backends")
	}

	// Cooldown elapses: exactly one probe goes through.
	now = now.Add(2 * time.Minute)
	if !b.allow("wafer") {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow("wafer") {
		t.Fatal("second concurrent probe admitted")
	}
	// The probe fails: immediate re-open, one more trip.
	if !b.failure("wafer") {
		t.Fatal("failed probe did not re-trip")
	}
	if b.allow("wafer") {
		t.Fatal("re-opened breaker admitted an attempt")
	}
	// Next probe succeeds: circuit closes fully.
	now = now.Add(2 * time.Minute)
	if !b.allow("wafer") {
		t.Fatal("second probe refused")
	}
	b.success("wafer")
	if !b.allow("wafer") || b.open("wafer") {
		t.Fatal("breaker not closed after a successful probe")
	}
}

// TestServiceMaxBody pins the request-body cap on POST /v1/jobs.
func TestServiceMaxBody(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxBody: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"nx":4,"ny":4,"nz":8,"problem":"` + strings.Repeat("x", 512) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", resp.StatusCode)
	}
	// A normal-size spec still parses under the cap.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nx":4,"ny":4,"nz":8,"max_iter":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("normal spec: status %d, want 202", resp2.StatusCode)
	}
}

// TestSpecResilienceFields covers validation of the new spec fields.
func TestSpecResilienceFields(t *testing.T) {
	base := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 8}
	neg := base
	neg.TimeoutMS = -5
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "timeout_ms") {
		t.Errorf("negative timeout_ms: err = %v", err)
	}
	hostFB := base
	hostFB.Backend = "local"
	hostFB.NZ = 4
	hostFB.AllowFallback = true
	if err := hostFB.Validate(); err == nil || !strings.Contains(err.Error(), "allow_fallback") {
		t.Errorf("allow_fallback on local backend: err = %v", err)
	}
	ok := base
	ok.Backend = "wafer"
	ok.TimeoutMS = 5000
	ok.AllowFallback = true
	if err := ok.Validate(); err != nil {
		t.Errorf("valid resilience fields rejected: %v", err)
	}
}

// TestServiceCancelSurvivesRestart: a cancellation finalized by one
// daemon stays canceled when the next daemon recovers the spool (the
// terminal state is durable, not re-queued).
func TestServiceCancelSurvivesRestart(t *testing.T) {
	spoolDir := t.TempDir()
	s1, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer shutdown(t, s2)
	time.Sleep(50 * time.Millisecond)
	if final := s2.getJob(v.ID).view(false); final.State != StateCanceled || final.Attempts != 0 {
		t.Errorf("after restart: state %s attempts %d, want canceled with 0 attempts", final.State, final.Attempts)
	}
}

// retiredClusterRecords are two spool records written by a daemon that
// still ran the rank-parallel "cluster" backend, byte for byte: a
// finished job whose spec and telemetry carry "ranks", and a queued one.
var retiredClusterRecords = map[string]string{
	"j000001": `{"id":"j000001","spec":{"problem":"poisson","nx":2,"ny":2,"nz":2,"seed":7,"backend":"cluster","max_iter":2,"ranks":2},"state":"done","attempts":1,"submitted_at":"2026-10-22T07:29:31.007850628Z","iter":2,"rel":0.014906678953256846,"result":{"iterations":2,"converged":false,"true_residual":0.014906678953256916,"history":[0.16889121245086955,0.014906678953256846],"telemetry":{"backend":"cluster","simulated":false,"ranks":2,"cycles":{"spmv":0,"dot":0,"allreduce":0,"axpy":0},"per_iteration":{"spmv":0,"dot":0,"allreduce":0,"axpy":0}},"x":[0.9091998652374,0.22171794930332164,0.23345116617703243,0.8987786213879511,0.687356843240534,0.13125837973593077,0.34103565408470526,0.32894807251547953]}}`,
	"j000002": `{"id":"j000002","spec":{"problem":"poisson","nx":2,"ny":2,"nz":2,"seed":7,"backend":"cluster","max_iter":2,"ranks":2},"state":"queued","submitted_at":"2026-10-22T07:29:31.009609815Z"}`,
}

// TestSpoolFromRetiredBackendRecovers: a spool written before the
// cluster backend was retired still recovers. Nothing is quarantined;
// the finished job is served as it was recorded, less the "ranks"
// fields no type carries any more and the live progress (iter, rel)
// that recovery restores for no job; the queued job fails on its first
// attempt with the backend refusal instead of burning retries.
func TestSpoolFromRetiredBackendRecovers(t *testing.T) {
	spoolDir := t.TempDir()
	sp := spool{dir: spoolDir, fs: faultinject.OS}
	for id, rec := range retiredClusterRecords {
		if err := sp.writeFile(sp.jobPath(id), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Workers: 1, SpoolDir: spoolDir, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdown(t, s)

	done := waitTerminal(t, s, "j000001", 10*time.Second)
	got, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.NewReplacer(`,"ranks":2`, "", `"iter":2,"rel":0.014906678953256846,`, "").Replace(retiredClusterRecords["j000001"])
	if string(got) != want {
		t.Errorf("finished cluster job served as\n%s\nwant\n%s", got, want)
	}

	queued := waitTerminal(t, s, "j000002", 10*time.Second)
	if queued.State != StateFailed || queued.Attempts != 1 {
		t.Errorf("queued cluster job: state %s after %d attempts, want failed after 1", queued.State, queued.Attempts)
	}
	if !strings.Contains(queued.Error, `unknown backend "cluster"`) || !strings.Contains(queued.Error, "local") {
		t.Errorf("queued cluster job error %q, want the backend refusal naming local", queued.Error)
	}
	if _, err := os.Stat(filepath.Join(spoolDir, quarantineDir)); !os.IsNotExist(err) {
		t.Errorf("recovery quarantined something (stat %s: %v)", quarantineDir, err)
	}
}

// TestContextErrClassification pins that the error a canceled solve
// returns still satisfies errors.Is after the service wraps it — the
// classification runJob's outcome switch depends on.
func TestContextErrClassification(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}.withDefaults()
	j := newJob("j000001", spec, time.Now())
	_, _, err = s.solveAttempt(ctx, j, spec, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled solveAttempt: err = %v, want context.Canceled", err)
	}
}

// open reports whether the backend's circuit is currently open.
func (b *breaker) open(backend string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(backend)
	return !st.openUntil.IsZero() && b.clock().Before(st.openUntil)
}
