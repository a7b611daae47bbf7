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

// shutdown reaps a server's workers; used on the "crashed" daemon too —
// by then the armed crash point has already made its worker abandon the
// job, so parking the pool mutates nothing further.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestChaosCrashPoints kills a worker at every named instant before and
// after each durable state transition, restarts the daemon over the
// same spool, and asserts exactly-once termination: the job ends in
// exactly one terminal state, completed results are bit-identical to an
// uninterrupted reference solve, and a result spooled before the crash
// is served without being recomputed.
func TestChaosCrashPoints(t *testing.T) {
	waferSpec := JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 4}
	localSpec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}
	failFirst := func(spec JobSpec, attempt int) error {
		if attempt == 1 {
			return errors.New("synthetic solver fault")
		}
		return nil
	}
	failAlways := func(spec JobSpec, attempt int) error {
		return errors.New("permanent synthetic fault")
	}

	cases := []struct {
		name         string
		point        string
		spec         JobSpec
		fault1       func(JobSpec, int) error // crashed daemon
		fault2       func(JobSpec, int) error // recovered daemon
		wantState    JobState
		wantAttempts int
		wantErrPart  string
	}{
		// Crash around the queued→running write: the job re-runs from
		// its spec.
		{"before-running", "run.before-running", waferSpec, nil, nil, StateDone, 1, ""},
		{"after-running", "run.after-running", waferSpec, nil, nil, StateDone, 2, ""},
		// Crash around the running→done write. Before: the finished
		// result is lost with the process and the re-run must reproduce
		// it bit for bit. After: the spooled result is served verbatim,
		// never recomputed.
		{"before-done", "run.before-done", waferSpec, nil, nil, StateDone, 2, ""},
		{"after-done", "run.after-done", waferSpec, nil, nil, StateDone, 1, ""},
		// Crash around the retry's running→queued write.
		{"before-retry", "run.before-queued", localSpec, failFirst, nil, StateDone, 2, ""},
		{"after-retry", "run.after-queued", localSpec, failFirst, nil, StateDone, 2, ""},
		// Crash around the running→failed write. Before: the recovered
		// daemon sees the persisted attempt count, recognizes the poison
		// job and fails it terminally instead of crash-looping. After:
		// the failure is already durable.
		{"before-failed", "run.before-failed", localSpec, failAlways, failAlways, StateFailed, 3, "poison"},
		{"after-failed", "run.after-failed", localSpec, failAlways, failAlways, StateFailed, 2, "permanent synthetic fault"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spoolDir := t.TempDir()
			crashes := faultinject.NewCrashes()
			fired := crashes.Arm(tc.point, 1)

			s1, err := New(Config{
				Workers: 1, SpoolDir: spoolDir, Crashes: crashes,
				MaxRetries: 1, RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			s1.injectFault = tc.fault1
			s1.Start()
			v, err := s1.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-fired:
			case <-time.After(120 * time.Second):
				t.Fatalf("crash point %s never fired", tc.point)
			}
			shutdown(t, s1)

			s2, err := New(Config{
				Workers: 1, SpoolDir: spoolDir,
				MaxRetries: 1, RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			s2.injectFault = tc.fault2
			s2.Start()
			defer shutdown(t, s2)

			final := waitTerminal(t, s2, v.ID, 120*time.Second)
			if final.State != tc.wantState {
				t.Fatalf("state %s (error %q), want %s", final.State, final.Error, tc.wantState)
			}
			if final.Attempts != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", final.Attempts, tc.wantAttempts)
			}
			if tc.wantErrPart != "" && !strings.Contains(final.Error, tc.wantErrPart) {
				t.Errorf("error %q does not mention %q", final.Error, tc.wantErrPart)
			}
			switch tc.wantState {
			case StateDone:
				assertBitIdentical(t, tc.name, final.Result, directSolve(t, tc.spec))
			case StateFailed:
				if final.Result != nil {
					t.Errorf("failed job carries a result")
				}
			}
			// Exactly-once: the terminal state is final. Give a stray
			// re-run a moment to (wrongly) bump the attempt count.
			time.Sleep(50 * time.Millisecond)
			if again := s2.getJob(v.ID).view(false); again.State != tc.wantState || again.Attempts != tc.wantAttempts {
				t.Errorf("terminal state not stable: now %s with %d attempts", again.State, again.Attempts)
			}
		})
	}
}

// TestChaosSpoolQuarantine seeds a spool with one good record and three
// corrupt ones — torn JSON, a record whose ID contradicts its filename,
// an unknown state — and asserts recovery quarantines the bad records,
// keeps the good one, and counts the quarantines into /metrics.
func TestChaosSpoolQuarantine(t *testing.T) {
	spoolDir := t.TempDir()
	good, _ := json.Marshal(JobView{
		ID:          "j000001",
		Spec:        JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}.withDefaults(),
		State:       StateQueued,
		SubmittedAt: time.Now(),
	})
	torn := good[:len(good)/2]
	liar, _ := json.Marshal(JobView{ID: "j000009", State: StateQueued, SubmittedAt: time.Now()})
	alien, _ := json.Marshal(JobView{ID: "j000004", State: JobState("exploded"), SubmittedAt: time.Now()})
	for name, data := range map[string][]byte{
		"j000001.json": good,
		"j000002.json": torn,
		"j000003.json": liar,
		"j000004.json": alien,
	} {
		if err := os.WriteFile(filepath.Join(spoolDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	if len(ids) != 1 || ids[0] != "j000001" {
		t.Fatalf("recovered jobs %v, want exactly [j000001]", ids)
	}
	for _, name := range []string{"j000002.json", "j000003.json", "j000004.json"} {
		if _, err := os.Stat(filepath.Join(spoolDir, quarantineDir, name)); err != nil {
			t.Errorf("%s not in quarantine: %v", name, err)
		}
	}
	var buf strings.Builder
	s.metrics.write(&buf, 0, 0, 0, 0)
	if !strings.Contains(buf.String(), "wsesimd_spool_quarantined_total 3") {
		t.Errorf("/metrics does not count 3 quarantined records:\n%s", buf.String())
	}

	// The surviving job still solves.
	s.Start()
	defer shutdown(t, s)
	final := waitTerminal(t, s, "j000001", 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("recovered job: state %s, error %q", final.State, final.Error)
	}
}

// TestChaosCkptQuarantine gives a recovering wafer job a corrupt
// checkpoint blob: the checksum check quarantines it and the job
// re-runs from its deterministic spec to a bit-identical result instead
// of resuming from garbage.
func TestChaosCkptQuarantine(t *testing.T) {
	spoolDir := t.TempDir()
	spec := JobSpec{Problem: "momentum", NX: 4, NY: 4, NZ: 8, Backend: "wafer", MaxIter: 4}.withDefaults()
	record, _ := json.Marshal(JobView{ID: "j000001", Spec: spec, State: StateSuspended, Attempts: 1, SubmittedAt: time.Now()})
	if err := os.WriteFile(filepath.Join(spoolDir, "j000001.json"), record, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spoolDir, "j000001.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdown(t, s)
	final := waitTerminal(t, s, "j000001", 120*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	assertBitIdentical(t, "rerun after ckpt quarantine", final.Result, directSolve(t, spec))
	if _, err := os.Stat(filepath.Join(spoolDir, quarantineDir, "j000001.ckpt")); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	var buf strings.Builder
	s.metrics.write(&buf, 0, 0, 0, 0)
	if !strings.Contains(buf.String(), "wsesimd_spool_quarantined_total 1") {
		t.Errorf("/metrics does not count the quarantined checkpoint:\n%s", buf.String())
	}
}

// TestChaosSpoolWriteFaults runs the daemon on a filesystem that fails
// spool writes: a failure on the submission write surfaces to the
// client, failures on mid-run state writes degrade durability but never
// the in-memory job, and a restart after such a failure re-runs the job
// rather than losing it.
func TestChaosSpoolWriteFaults(t *testing.T) {
	spoolDir := t.TempDir()
	// Write 1 (the submission record) fails; every later write passes.
	ffs := faultinject.NewFaultFS(nil, &faultinject.Rule{
		Op: faultinject.OpWrite, Skip: 0, Times: 1, Mode: faultinject.ModeFail,
	})
	s, err := New(Config{Workers: 1, SpoolDir: spoolDir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdown(t, s)

	spec := JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}
	if _, err := s.Submit(spec); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("submit during write fault: err = %v, want the injected fault", err)
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("%d faults fired, want 1", n)
	}
	// Nothing was registered: no phantom queued job lingers in the list.
	s.mu.Lock()
	registered := len(s.jobs) + len(s.order)
	s.mu.Unlock()
	if registered != 0 {
		t.Fatalf("failed submission left %d registry entries behind", registered)
	}
	// The filesystem healed: the next submission goes through and the
	// job completes normally.
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	assertBitIdentical(t, "post-fault job", final.Result, directSolve(t, spec))
}

// TestChaosSubmitWriteFaultIs500: a submission the server fails to make
// durable — here on a full spool disk — answers 500, not the 400 of a
// bad spec: the request was fine.
func TestChaosSubmitWriteFaultIs500(t *testing.T) {
	ffs := faultinject.NewFaultFS(nil, &faultinject.Rule{Op: faultinject.OpWrite, Times: 1, Mode: faultinject.ModeENOSPC})
	s, err := New(Config{Workers: 1, SpoolDir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"problem":"poisson","nx":4,"ny":4,"nz":4,"backend":"local","max_iter":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("submit on a full spool disk: status %d, want 500", resp.StatusCode)
	}
}

// TestChaosTornSubmitWrite tears the durable write of a job record
// mid-flight (the torn half is published by the rename, exactly what a
// crash between write and fsync leaves) and asserts the next daemon
// quarantines the half-record instead of failing recovery.
func TestChaosTornSubmitWrite(t *testing.T) {
	spoolDir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, &faultinject.Rule{
		Op: faultinject.OpWrite, PathContains: ".json", Skip: 0, Times: 1, Mode: faultinject.ModeTorn,
	})
	s1, err := New(Config{Workers: 1, SpoolDir: spoolDir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the torn record stays exactly as submitted.
	if _, err := s1.Submit(JobSpec{Problem: "poisson", NX: 4, NY: 4, NZ: 4, Backend: "local", MaxIter: 5}); err != nil {
		t.Fatalf("torn write reports success by design, submit failed: %v", err)
	}

	s2, err := New(Config{Workers: 1, SpoolDir: spoolDir})
	if err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	n := len(s2.order)
	s2.mu.Unlock()
	if n != 0 {
		t.Fatalf("recovered %d jobs from a torn record, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(spoolDir, quarantineDir, "j000001.json")); err != nil {
		t.Errorf("torn record not quarantined: %v", err)
	}
}
