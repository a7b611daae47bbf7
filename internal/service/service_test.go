package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// directSolve runs the spec through core.Solve — the reference the
// service's warm-machine path must match bit for bit.
func directSolve(t *testing.T, spec JobSpec) core.Result {
	t.Helper()
	spec = spec.withDefaults()
	o, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.BuildProblem()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertBitIdentical(t *testing.T, label string, got *JobResult, want core.Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: job has no result", label)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: %d history entries, direct solve has %d", label, len(got.History), len(want.History))
	}
	for i := range want.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			t.Fatalf("%s: history[%d] = %.17g, direct solve has %.17g", label, i, got.History[i], want.History[i])
		}
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: solution length %d, want %d", label, len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] = %v, direct solve has %v", label, i, got.X[i], want.X[i])
		}
	}
	if math.Float64bits(got.TrueResidual) != math.Float64bits(want.TrueResidual) {
		t.Fatalf("%s: true residual %v, direct solve has %v", label, got.TrueResidual, want.TrueResidual)
	}
}

func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) JobView {
	t.Helper()
	j := s.getJob(id)
	if j == nil {
		t.Fatalf("no such job %s", id)
	}
	select {
	case <-j.done:
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %v (state %s)", id, timeout, j.view(false).State)
	}
	return j.view(true)
}

func TestJobSpecValidate(t *testing.T) {
	valid := []JobSpec{
		{Problem: "poisson", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 3},
		{NX: 4, NY: 4, NZ: 8}, // defaults: momentum on the wafer
		{Problem: "random", NX: 4, NY: 4, NZ: 3, Backend: "local", Precision: "fp32"},
		{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Backend: "multiwafer", Grid: "2x1", Workers: 2},
		{NX: 4, NY: 4, NZ: 8, Workers: core.MaxWorkers},
	}
	for i, spec := range valid {
		if err := spec.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		spec  JobSpec
		field string
	}{
		{JobSpec{Problem: "heat", NX: 4, NY: 4, NZ: 8}, "problem"},
		{JobSpec{NX: 0, NY: 4, NZ: 8}, "nx"},
		{JobSpec{NX: 700, NY: 700, NZ: 700}, "nx"},
		{JobSpec{NX: 1 << 22, NY: 1 << 22, NZ: 1 << 20}, "nx"}, // 2^64 cells wrap to 0
		{JobSpec{NX: 4, NY: 4, NZ: 8, Workers: core.MaxWorkers + 1}, "Wafer.Workers"},
		{JobSpec{NX: 256, NY: 256, NZ: 2, Workers: 65535}, "Wafer.Workers"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "multiwafer", Workers: 1 << 20}, "MultiWafer.Workers"},
		{JobSpec{NX: 4, NY: 4, NZ: 7, Backend: "wafer"}, "nz"},
		{JobSpec{NX: 4, NY: 4, NZ: 7, Backend: "multiwafer"}, "nz"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "gpu"}, "backend"},
		{JobSpec{NX: 4, NY: 4, NZ: 6, Backend: "cluster"}, "backend"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "local", Precision: "fp8"}, "precision"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "wafer", Precision: "fp64"}, "precision"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "local", Workers: 2}, "workers"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "wafer", Grid: "2x1"}, "grid"},
		{JobSpec{NX: 4, NY: 4, NZ: 8, Backend: "multiwafer", Grid: "2x"}, "grid"},
	}
	for _, tc := range invalid {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("spec %+v accepted, want error on %q", tc.spec, tc.field)
			continue
		}
		var se *SpecError
		var oe *core.OptionError
		switch {
		case errors.As(err, &se):
			if se.Field != tc.field {
				t.Errorf("spec %+v rejected on field %q, want %q", tc.spec, se.Field, tc.field)
			}
		case errors.As(err, &oe):
			if oe.Field != tc.field {
				t.Errorf("spec %+v rejected on option %q, want %q", tc.spec, oe.Field, tc.field)
			}
		}
	}

	// A "cluster" job is refused with an error that points the client
	// at the host backend.
	if err := (JobSpec{NX: 4, NY: 4, NZ: 6, Backend: "cluster"}).Validate(); err == nil || !strings.Contains(err.Error(), "local") {
		t.Errorf("cluster backend: got %v, want a refusal naming local", err)
	}

	// Negative MaxIter flows through to core.Options.Validate.
	err := JobSpec{NX: 4, NY: 4, NZ: 8, MaxIter: -1}.Validate()
	var oe *core.OptionError
	if !errors.As(err, &oe) {
		t.Errorf("negative max_iter: got %v, want a core.OptionError", err)
	}
}

// TestServiceParallelMixedBackends is the tentpole acceptance test: a
// dozen jobs across all three backends run concurrently (under -race in
// CI), every result is bit-identical to a direct core.Solve of the same
// spec, and the machine cache reuses warm machines across the
// same-shape wafer jobs.
func TestServiceParallelMixedBackends(t *testing.T) {
	s, err := New(Config{Workers: 4, SpoolDir: t.TempDir(), MaxIdleMachines: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var specs []JobSpec
	// Eight same-shape wafer jobs with distinct right-hand sides: four
	// workers can build at most four machines, so at least four of
	// these must hit the cache.
	for seed := int64(1); seed <= 8; seed++ {
		specs = append(specs, JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 8,
			Seed: seed, Backend: "wafer", MaxIter: 4})
	}
	specs = append(specs,
		JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 6, Backend: "local", Precision: "mixed", MaxIter: 8},
		JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 6, Backend: "local", MaxIter: 8},
		JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Seed: 3, Backend: "multiwafer", Grid: "2x1", MaxIter: 4},
		JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Seed: 5, Backend: "multiwafer", Grid: "2x1", MaxIter: 4},
	)

	ids := make([]string, len(specs))
	for i, spec := range specs {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s: %s", i, resp.Status, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}

	for i, id := range ids {
		v := waitTerminal(t, s, id, 120*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s (spec %d): state %s, error %q", id, i, v.State, v.Error)
		}
		assertBitIdentical(t, fmt.Sprintf("job %s (spec %d)", id, i), v.Result, directSolve(t, specs[i]))
	}

	hits, misses := s.CacheStats()
	if hits < 4 {
		t.Errorf("machine cache: %d hits / %d misses, want >= 4 hits from warm reuse", hits, misses)
	}
	// The hit rate is observable, as /metrics promises.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("wsesimd_machine_cache_hits_total %d", hits)
	if !strings.Contains(string(metricsText), want) {
		t.Errorf("/metrics missing %q:\n%s", want, metricsText)
	}
	if !strings.Contains(string(metricsText), `wsesimd_jobs_completed_total{backend="wafer"} 8`) {
		t.Errorf("/metrics missing wafer completion count:\n%s", metricsText)
	}
}

// TestServiceMultiwaferCacheIgnoresWorkers: cluster wafers run
// fast-forward whatever workers says, so two otherwise identical
// multiwafer jobs share one warm cluster and return the same bits.
func TestServiceMultiwaferCacheIgnoresWorkers(t *testing.T) {
	assertOneWarmMachine(t, JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Seed: 3, Backend: "multiwafer", Grid: "2x1", MaxIter: 4}, 0, 2)
}

// TestServiceWaferCacheWorkersZeroOrOne: a wafer job with workers 0 and
// one with workers 1 build the same default-engine machine, so the
// second is a warm-cache hit with the first's bits.
func TestServiceWaferCacheWorkersZeroOrOne(t *testing.T) {
	assertOneWarmMachine(t, JobSpec{Problem: "momentum", NX: 6, NY: 6, NZ: 8, Seed: 3, Backend: "wafer", MaxIter: 4}, 0, 1)
}

// assertOneWarmMachine runs spec once per workers value on one server
// and requires one cache miss, then hits, every job bit-identical to a
// direct solve.
func assertOneWarmMachine(t *testing.T, spec JobSpec, workersSeq ...int) {
	t.Helper()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdown(t, s)
	for i, workers := range workersSeq {
		spec.Workers = workers
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, v.ID, 60*time.Second)
		if final.State != StateDone {
			t.Fatalf("workers %d: state %s, error %q", workers, final.State, final.Error)
		}
		assertBitIdentical(t, fmt.Sprintf("workers %d", workers), final.Result, directSolve(t, spec))
		if hits, misses := s.CacheStats(); hits != int64(i) || misses != 1 {
			t.Errorf("after workers %d: %d hits / %d misses, want %d / 1", workers, hits, misses, i)
		}
	}
}

// TestServiceSuspendResume pins the zero-lost-jobs shutdown contract:
// a daemon SIGTERM'd mid-solve checkpoints the in-flight wafer job, and
// a fresh daemon on the same spool resumes it to a result bit-identical
// to an uninterrupted solve.
func TestServiceSuspendResume(t *testing.T) {
	spoolDir := t.TempDir()
	spec := JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 16, Backend: "wafer", MaxIter: 200}

	s1, err := New(Config{Workers: 1, SpoolDir: spoolDir, SuspendEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the solve mid-flight until draining starts, so the shutdown
	// deterministically catches it before the suspend checkpoint at
	// iteration 2 (a tiny mesh solves faster than a SIGTERM lands).
	started := make(chan struct{})
	var once sync.Once
	s1.testIterHook = func(_ *job, iter int) {
		once.Do(func() { close(started) })
		for !s1.draining.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	s1.Start()
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID

	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	jv := s1.getJob(id).view(false)
	if jv.State != StateSuspended {
		t.Fatalf("after shutdown: state %s, want %s", jv.State, StateSuspended)
	}
	if _, err := os.Stat(filepath.Join(spoolDir, id+".ckpt")); err != nil {
		t.Fatalf("no checkpoint blob in the spool: %v", err)
	}

	// Restart on the same spool: the job resumes and completes.
	s2, err := New(Config{Workers: 1, SpoolDir: spoolDir, SuspendEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.getJob(id).view(false).State; got != StateQueued {
		t.Fatalf("restarted daemon: state %s, want %s", got, StateQueued)
	}
	s2.Start()
	final := waitTerminal(t, s2, id, 120*time.Second)
	if final.State != StateDone {
		t.Fatalf("resumed job: state %s, error %q", final.State, final.Error)
	}
	assertBitIdentical(t, "resumed job", final.Result, directSolve(t, spec))

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(spoolDir, id+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("checkpoint blob not cleaned up after completion")
	}
}

// TestServiceRetry exercises the backoff path: a fault on the first
// attempt re-queues the job, the second attempt succeeds.
func TestServiceRetry(t *testing.T) {
	s, err := New(Config{Workers: 1, RetryBackoff: time.Millisecond, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.injectFault = func(spec JobSpec, attempt int) error {
		if attempt == 1 {
			return errors.New("synthetic solver fault")
		}
		return nil
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	spec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one fault, one success)", final.Attempts)
	}
	assertBitIdentical(t, "retried job", final.Result, directSolve(t, spec))

	// A permanent fault exhausts MaxRetries and fails the job.
	s.injectFault = func(spec JobSpec, attempt int) error { return errors.New("permanent fault") }
	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitTerminal(t, s, v2.ID, 30*time.Second)
	if final2.State != StateFailed {
		t.Fatalf("permanently faulting job: state %s, want failed", final2.State)
	}
	if final2.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 retries)", final2.Attempts)
	}
}

// TestServiceStream reads the NDJSON residual stream of a finished job:
// one line per history entry, then the terminal state line — for a
// simulated backend and for the host backend, whose BiCGStab reports
// progress through the same hook.
func TestServiceStream(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []JobSpec{
		{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 4},
		{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "local", MaxIter: 4},
	} {
		t.Run(spec.Backend, func(t *testing.T) {
			v, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()

			var progress int
			var sawFinal bool
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line map[string]any
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("bad stream line %q: %v", sc.Text(), err)
				}
				if _, ok := line["iter"]; ok {
					progress++
				}
				if st, ok := line["state"]; ok {
					sawFinal = true
					if st != string(StateDone) {
						t.Fatalf("stream ended in state %v", st)
					}
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			direct := directSolve(t, spec)
			if progress != len(direct.History) || progress != spec.MaxIter {
				t.Errorf("streamed %d progress lines, solve has %d history entries, want %d", progress, len(direct.History), spec.MaxIter)
			}
			if !sawFinal {
				t.Error("stream ended without a terminal state line")
			}
		})
	}
}

// TestServiceHTTPRejects covers the API's negative space: malformed
// and misrouted requests fail with field-precise errors and the right
// status codes, and a draining daemon refuses new work.
func TestServiceHTTPRejects(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: submitted jobs stay queued.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"nx":4,"ny":4,"nz":8,"backend":"gpu"}`, "backend"},
		{`{"nx":4,"ny":4,"nz":7,"backend":"wafer"}`, "nz"},
		{`{"nx":4,"ny":4,"nz":8,"backend":"wafer","ranks":4}`, "ranks"},
		{`{"nx":4,"ny":4,"nz":6,"backend":"cluster"}`, "local"},
		{`{"nx":4,"ny":4,"nz":6,"backend":"cluster","ranks":4}`, `unknown field \"ranks\"`},
		{`{"nx":4,"ny":4,"nz":8,"max_iter":-1}`, "MaxIter"},
		{`{"nx":4,"ny":4,"nz":8,"frobnicate":true}`, "frobnicate"},
		{`{"nx":4,"ny":4,"nz":8,"workers":1048576}`, "Wafer.Workers"},
		{`{"nx":4194304,"ny":4194304,"nz":1048576}`, "nx"},
		{`not json`, "bad job spec"},
	} {
		code, body := post(tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", tc.body, code)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("POST %s: error %q does not name %q", tc.body, body, tc.want)
		}
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}

	// A queued job has no solution yet.
	v, err := s.Submit(JobSpec{NX: 4, NY: 4, NZ: 8, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/solution"); resp.StatusCode != http.StatusConflict {
		t.Errorf("solution of queued job: %d, want 409", resp.StatusCode)
	}

	// Draining: submissions bounce with 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	if code, _ := post(`{"nx":4,"ny":4,"nz":8}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", code)
	}
}

// TestLoadGen runs the ssbench engine against an in-process daemon —
// the same path the root BenchmarkService entries measure.
func TestLoadGen(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}
	for _, mix := range []LoadMix{MixFullWrite, MixReadWrite} {
		st, err := RunLoad(LoadOptions{BaseURL: ts.URL, Mix: mix, Concurrency: 2, Ops: 8, Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if st.Writes.Count+st.Reads.Count != 8 {
			t.Errorf("%s: %d ops completed, want 8", mix, st.Writes.Count+st.Reads.Count)
		}
		if st.QPS <= 0 {
			t.Errorf("%s: QPS = %v, want > 0", mix, st.QPS)
		}
		if st.Writes.Count > 0 && st.Writes.Avg <= 0 {
			t.Errorf("%s: zero average write latency", mix)
		}
	}
}
