// Package service implements wsesimd, the solver-as-a-service layer: a
// persistent daemon owning a pool of warm, pre-built simulated machines
// behind an HTTP/JSON job API. Clients POST a JobSpec — a fully
// deterministic problem description — and get a job ID to poll or
// stream; the daemon schedules solves over a bounded worker pool,
// reuses machines across jobs through a keyed cache (fabric shape +
// depth + shard count + wafer grid), spools every job durably, retries
// transient failures with backoff, and on SIGTERM checkpoints in-flight
// wafer solves so a restarted daemon resumes them bit-identically.
// Results are bit-identical to a direct core.Solve call — the cache and
// the crash path are invisible in the numbers (pinned by this package's
// tests and the warm-reuse tests in kernels and multiwafer).
//
// The robustness layer on top: jobs carry deadlines and can be canceled
// (DELETE /v1/jobs/{id}) — both unwind a running solve cooperatively at
// an iteration boundary, so the machine goes back to the warm cache in
// a reusable state. Spool recovery quarantines corrupt records instead
// of dying on them, a per-backend circuit breaker sheds load off a
// failing backend (optionally falling back to the host solve), and
// every spool write routes through a faultinject seam so chaos tests
// can prove no crash instant loses or double-completes a job.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Config sizes the daemon.
type Config struct {
	// SpoolDir is the durable job store; empty disables persistence
	// (jobs and results live in memory only).
	SpoolDir string
	// Workers is the solve worker-pool size; default 4. Each worker runs
	// one job at a time, so this bounds concurrent simulations.
	Workers int
	// QueueDepth bounds the pending-job queue; default 256. Submissions
	// beyond it are rejected with 503.
	QueueDepth int
	// MaxIdleMachines bounds the warm-machine cache; default 8.
	MaxIdleMachines int
	// SuspendEvery is the checkpoint cadence (iterations) armed on every
	// wafer job so a draining daemon can suspend it at the next
	// boundary; default 4. Checkpoints are only written while draining.
	SuspendEvery int
	// MaxRetries is how many times a failed solve is re-queued before
	// the job fails for good; default 2.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt; default 100ms.
	RetryBackoff time.Duration
	// DefaultTTL caps a job's total lifetime (from submission) when its
	// spec carries no timeout_ms; 0 means no server-side deadline.
	DefaultTTL time.Duration
	// BreakerThreshold is how many consecutive genuine solve failures on
	// one backend trip its circuit breaker open; default 3.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped circuit stays open before
	// admitting a half-open probe; default 5s.
	BreakerCooldown time.Duration
	// MaxBody bounds the POST /v1/jobs request body in bytes; default
	// 1 MiB — a JobSpec is a few hundred bytes, anything near the limit
	// is not a job submission.
	MaxBody int64
	// FS is the filesystem the spool uses; nil means the real one. Chaos
	// tests (and wsesimd -inject-spool-faults) install a
	// faultinject.FaultFS.
	FS faultinject.FS
	// Crashes is the crash-point registry chaos tests arm to "kill" a
	// worker between two spool writes; nil — the default — never fires.
	Crashes *faultinject.Crashes
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxIdleMachines <= 0 {
		c.MaxIdleMachines = 8
	}
	if c.SuspendEvery <= 0 {
		c.SuspendEvery = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// Server is the daemon: job registry, worker pool, machine cache,
// metrics and the HTTP API. Create with New, launch with Start, stop
// with Shutdown.
type Server struct {
	cfg     Config
	spool   spool
	cache   *machineCache
	metrics *metrics
	breaker *breaker
	crashes *faultinject.Crashes

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for GET /v1/jobs
	seq   int      // last issued job number

	queue    chan *job
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	draining atomic.Bool
	running  atomic.Int64

	// injectFault, when non-nil, replaces the solve for matching
	// attempts — the retry path's test seam.
	injectFault func(spec JobSpec, attempt int) error
	// testIterHook, when non-nil, runs inside every solve's progress
	// callback — the shutdown test's seam for holding a solve
	// mid-flight until draining starts.
	testIterHook func(j *job, iter int)
}

// New builds a server and recovers the spool: finished jobs come back
// servable, interrupted ones (queued, running or suspended at crash
// time) are re-queued — suspended wafer jobs resume from their
// checkpoint blob, the rest re-run from their deterministic spec.
// Corrupt spool records are quarantined and skipped, never fatal. Start
// must be called to begin solving.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fs := cfg.FS
	if fs == nil {
		fs = faultinject.OS
	}
	s := &Server{
		cfg:     cfg,
		spool:   spool{dir: cfg.SpoolDir, fs: fs},
		cache:   newMachineCache(cfg.MaxIdleMachines),
		metrics: newMetrics(),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		crashes: cfg.Crashes,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueDepth),
		quit:    make(chan struct{}),
	}
	s.spool.onQuarantine = func(string, error) { s.metrics.quarantine() }
	if s.spool.enabled() {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			return nil, err
		}
	}
	views, err := s.spool.load()
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		j := newJob(v.ID, v.Spec, v.SubmittedAt)
		j.attempts = v.Attempts
		j.errMsg = v.Error
		j.result = v.Result
		var n int
		if _, err := fmt.Sscanf(v.ID, "j%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[v.ID] = j
		s.order = append(s.order, v.ID)
		if v.State.terminal() {
			j.state = v.State
			close(j.done)
			// A crash between the terminal write and the checkpoint
			// cleanup leaves a stale blob behind; sweep it now.
			s.spool.removeCkpt(v.ID)
			continue
		}
		// Interrupted mid-flight: back to the queue. The spec is
		// deterministic and any checkpoint blob is picked up by runJob,
		// so nothing is lost.
		j.state = StateQueued
		if err := s.spool.writeJob(j.view(true)); err != nil {
			return nil, err
		}
		s.queue <- j
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains the daemon: no new submissions, queued jobs stay
// spooled, running wafer solves suspend at their next checkpoint
// boundary, and the machine cache is released. It returns when every
// worker has parked or the context expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.quit) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cache.close()
	return err
}

// CacheStats exposes the machine cache's lifetime hit/miss counters
// (also served on /metrics).
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.stats() }

// Submit registers and enqueues a job, returning its status view. The
// job is registered only once its record is durable, so a failed spool
// write leaves nothing behind for GET /v1/jobs to list.
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	spec = spec.withDefaults()
	if _, err := spec.Options(); err != nil {
		return JobView{}, err
	}
	if s.draining.Load() {
		return JobView{}, errDraining
	}
	s.mu.Lock()
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), spec, time.Now())
	s.mu.Unlock()
	if err := s.spool.writeJob(j.view(true)); err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.metrics.count(spec.Backend, famSubmitted)
	select {
	case s.queue <- j:
		return j.view(false), nil
	default:
		s.finish(j, StateFailed, "queue full", 0)
		return JobView{}, errQueueFull
	}
}

// Cancel requests cancellation of a job. A job no worker holds (queued,
// suspended) is finalized immediately; a running job's solve context is
// canceled and its worker finalizes at the next iteration boundary —
// the returned view may still say "running" in that window.
func (s *Server) Cancel(id string) (JobView, error) {
	j := s.getJob(id)
	if j == nil {
		return JobView{}, errNoSuchJob
	}
	if !j.requestCancel() {
		return j.view(false), errJobTerminal
	}
	j.mu.Lock()
	running := j.state == StateRunning
	j.mu.Unlock()
	if !running {
		s.finish(j, StateCanceled, "canceled by client", 0)
	}
	return j.view(false), nil
}

var (
	errDraining    = errors.New("service: server is shutting down")
	errQueueFull   = errors.New("service: job queue is full")
	errBreakerOpen = errors.New("service: backend circuit breaker is open")
	errNoSuchJob   = errors.New("service: no such job")
	errJobTerminal = errors.New("service: job already in a terminal state")
)

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Prefer quit so a draining worker parks even when the queue
		// still has jobs (they stay spooled for the next start).
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// jobDeadline resolves a job's absolute deadline: the spec's timeout_ms
// when set, else the server's default TTL. Measured from submission
// time, so a deadline survives daemon restarts — a job cannot dodge its
// TTL by crashing the process.
func (s *Server) jobDeadline(spec JobSpec, submitted time.Time) (time.Time, bool) {
	if spec.TimeoutMS > 0 {
		return submitted.Add(time.Duration(spec.TimeoutMS) * time.Millisecond), true
	}
	if s.cfg.DefaultTTL > 0 {
		return submitted.Add(s.cfg.DefaultTTL), true
	}
	return time.Time{}, false
}

// transition moves the job to state and durably spools the new record,
// firing any armed crash points "run.before-<state>" and
// "run.after-<state>" around the write. crashed reports that an armed
// point fired — the caller must abandon the job immediately, exactly as
// if the process had died at that instant, leaving recovery to the next
// New over the same spool. applied is false when the job was already
// terminal (a racing cancellation won). Only finish and runJob's
// queued→running write call it.
func (s *Server) transition(j *job, state JobState, errMsg string) (applied, crashed bool) {
	if s.crashes.Hit("run.before-" + string(state)) {
		return false, true
	}
	if state != StateRunning {
		j.mu.Lock()
		j.errMsg = errMsg
		j.mu.Unlock()
	}
	applied = j.setState(state)
	s.spool.writeJob(j.view(true))
	if s.crashes.Hit("run.after-" + string(state)) {
		return applied, true
	}
	return applied, false
}

// finish books one outcome of a job; it is the one place outcomes are
// written. It runs the transition, and once that applied and no crash
// point fired, a terminal state drops the job's checkpoint and the
// state counts into its /metrics family (took, the solve time, feeds
// the latency histogram of done). It reports whether the outcome was
// booked: false means the job was already terminal, or the caller must
// abandon it.
func (s *Server) finish(j *job, state JobState, msg string, took time.Duration) bool {
	applied, crashed := s.transition(j, state, msg)
	if !applied || crashed {
		return false
	}
	if state.terminal() {
		s.spool.removeCkpt(j.id)
	}
	// A job's spec never changes after newJob, so it is read unlocked.
	s.metrics.ended(j.spec.Backend, state, took)
	return true
}

// runJob executes one attempt of a job: the preflight checks, the
// running transition, the solve, one classification of its outcome,
// the breaker bookkeeping, then finish. A retry re-enters the queue
// after a doubling backoff.
func (s *Server) runJob(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	j.mu.Lock()
	if j.state.terminal() {
		// Canceled or expired while sitting in the queue channel.
		j.mu.Unlock()
		return
	}
	spec := j.spec
	submitted := j.submitted
	lastErr := j.errMsg
	j.mu.Unlock()

	// Cancellation and expiry checks come before the attempt counter: a
	// job that never ran ends with zero attempts. A DELETE that landed
	// before any worker picked the job up finalizes here.
	if j.cancelRequested() {
		s.finish(j, StateCanceled, "canceled by client", 0)
		return
	}
	deadline, hasDeadline := s.jobDeadline(spec, submitted)
	if hasDeadline && !time.Now().Before(deadline) {
		s.finish(j, StateExpired, "deadline expired before the job ran", 0)
		return
	}

	j.mu.Lock()
	j.attempts++
	attempt := j.attempts
	j.points = nil // a retry restarts the residual stream
	j.mu.Unlock()

	// Poison guard: attempts persist in the spool, so a job that keeps
	// killing the daemon mid-solve comes back with its count intact and
	// lands here once the budget is gone — terminally failed instead of
	// getting another shot at taking the process down.
	if attempt > s.cfg.MaxRetries+1 {
		msg := fmt.Sprintf("poison job: retry budget exhausted after %d attempts", attempt-1)
		if lastErr != "" {
			msg += ": last error: " + lastErr
		}
		s.finish(j, StateFailed, msg, 0)
		return
	}

	if _, crashed := s.transition(j, StateRunning, ""); crashed {
		return
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if hasDeadline {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.armCancel(cancel) {
		// Cancellation raced the running transition.
		s.finish(j, StateCanceled, "canceled by client", 0)
		return
	}

	start := time.Now()
	res, fellBack, err := s.solveAttempt(ctx, j, spec, attempt)
	j.disarmCancel()
	took := time.Since(start)

	state, msg := s.outcome(j, err, attempt)
	// The breaker hears only of attempts its backend ran: a fallback
	// solve ran on the host, and an open breaker or a refused spec
	// ended the attempt without exercising anything.
	switch {
	case (state == StateQueued || state == StateFailed) && !fellBack && !errors.Is(err, errBreakerOpen) && !refusedSpec(err):
		if s.breaker.failure(spec.Backend) {
			s.metrics.count(spec.Backend, famBreakerTrips)
		}
	case state == StateDone:
		if fellBack {
			s.metrics.count(spec.Backend, famFallback)
		} else {
			s.breaker.success(spec.Backend)
		}
		r := resultFrom(res)
		r.Fallback = fellBack
		j.mu.Lock()
		if !j.state.terminal() {
			j.result = r
			if len(j.points) == 0 {
				// Host backends have no live progress hook; backfill the
				// stream from the final history.
				for i, rel := range res.History {
					j.points = append(j.points, progressPoint{Iter: i + 1, Rel: rel})
				}
			}
		}
		j.mu.Unlock()
	}
	if !s.finish(j, state, msg, took) || state != StateQueued {
		return
	}
	backoff := s.cfg.RetryBackoff << (attempt - 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTimer(backoff)
		defer t.Stop()
		select {
		case <-s.quit:
			// Stays queued in the spool; the next start re-runs it.
		case <-t.C:
			select {
			case s.queue <- j:
			case <-s.quit:
			}
		}
	}()
}

// outcome classifies an attempt's error into the state the job moves
// to and the message that state records.
func (s *Server) outcome(j *job, err error, attempt int) (JobState, string) {
	switch {
	case err == nil:
		return StateDone, ""
	case errors.Is(err, errSuspended):
		// The checkpoint blob is already spooled (the callback wrote it
		// before returning the sentinel).
		return StateSuspended, ""
	case errors.Is(err, context.DeadlineExceeded):
		return StateExpired, err.Error()
	case errors.Is(err, context.Canceled) || j.cancelRequested():
		return StateCanceled, "canceled by client"
	case refusedSpec(err):
		return StateFailed, err.Error()
	case attempt <= s.cfg.MaxRetries:
		return StateQueued, err.Error()
	}
	return StateFailed, err.Error()
}

// refusedSpec reports whether err is the spec's own refusal, a
// *SpecError or *core.OptionError. Submit refuses such a spec up front;
// one that reaches a worker was spooled by an older daemon (a job for a
// backend since retired), fails the same way on every attempt, and ran
// no backend.
func refusedSpec(err error) bool {
	var specErr *SpecError
	var optErr *core.OptionError
	return errors.As(err, &specErr) || errors.As(err, &optErr)
}

// solveAttempt builds the problem and runs one solve under the
// attempt's context, arming the shutdown-checkpoint hook on wafer jobs
// and resuming from a spooled checkpoint when one exists. When the
// backend's circuit breaker is open, a spec that allows it degrades to
// the host fallback solve (fellBack true); otherwise the attempt is
// refused with errBreakerOpen.
func (s *Server) solveAttempt(ctx context.Context, j *job, spec JobSpec, attempt int) (res core.Result, fellBack bool, err error) {
	o, err := spec.Options()
	if err != nil {
		return core.Result{}, false, err
	}
	p, err := spec.BuildProblem()
	if err != nil {
		return core.Result{}, false, err
	}
	progress := j.addPoint
	if s.testIterHook != nil {
		progress = func(iter int, rel float64) {
			j.addPoint(iter, rel)
			s.testIterHook(j, iter)
		}
	}
	// The breaker gate comes before the fault seam: an open circuit
	// refuses the attempt without touching the (injectable) backend, so
	// fallback jobs keep completing while the backend stays broken.
	if !s.breaker.allow(spec.Backend) {
		if spec.AllowFallback {
			res, err := s.runFallback(ctx, p, o, progress)
			return res, true, err
		}
		return core.Result{}, false, errBreakerOpen
	}
	if s.injectFault != nil {
		if err := s.injectFault(spec, attempt); err != nil {
			return core.Result{}, false, err
		}
	}
	if o.Backend == core.Wafer && s.spool.enabled() {
		o.Wafer.CheckpointEvery = s.cfg.SuspendEvery
		o.Wafer.Checkpoint = func(blob []byte) error {
			if !s.draining.Load() {
				return nil
			}
			if err := s.spool.writeCkpt(j.id, blob); err != nil {
				return err
			}
			return errSuspended
		}
		o.Wafer.Resume = s.spool.readCkpt(j.id)
	}
	res, err = s.runSolve(ctx, p, o, progress)
	return res, false, err
}

func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs               submit a JobSpec, 202 + job view
//	GET    /v1/jobs               list jobs (submission order)
//	GET    /v1/jobs/{id}          job status + live progress
//	DELETE /v1/jobs/{id}          cancel a job (409 once terminal)
//	GET    /v1/jobs/{id}/solution finished job's result incl. solution
//	GET    /v1/jobs/{id}/stream   NDJSON residual stream, ends on terminal state
//	GET    /metrics               Prometheus text metrics
//	GET    /healthz               liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/solution", s.handleSolution)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeSpec reads one job spec strictly: a field JobSpec does not
// have is an error, not ignored.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	spec, err := decodeSpec(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: job spec exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	v, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, v)
	case errors.Is(err, errDraining) || errors.Is(err, errQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
	case refusedSpec(err):
		writeError(w, http.StatusBadRequest, err)
	default:
		// The spec was fine; the server failed it (a spool write).
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, v)
	case errors.Is(err, errNoSuchJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errJobTerminal):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errNoSuchJob)
		return
	}
	writeJSON(w, http.StatusOK, j.view(false))
}

func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errNoSuchJob)
		return
	}
	v := j.view(true)
	if v.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("service: job is %s, solution available once done", v.State))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleStream writes newline-delimited JSON: one
// {"iter":N,"rel":R} line per residual-history entry (live for
// simulated backends, a final burst for host backends), then a
// terminal {"state":...} line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errNoSuchJob)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		points, state := j.pointsSince(sent)
		for _, pt := range points {
			enc.Encode(pt)
		}
		sent += len(points)
		if len(points) > 0 && flusher != nil {
			flusher.Flush()
		}
		if state.terminal() {
			v := j.view(false)
			final := map[string]any{"state": v.State}
			if v.Result != nil {
				final["iterations"] = v.Result.Iterations
				final["converged"] = v.Result.Converged
				final["true_residual"] = v.Result.TrueResidual
			}
			if v.Error != "" {
				final["error"] = v.Error
			}
			enc.Encode(final)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, len(s.queue), int(s.running.Load()), hits, misses)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
