package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// pollInterval is the status-poll cadence while a client waits for its
// job, cmd/ssbench's default.
const pollInterval = 2 * time.Millisecond

// clients is both the closed loop's client count and the daemon's solve
// worker count: min(2, nproc), so the load never exceeds the cores.
func clients() int { return min(2, runtime.NumCPU()) }

// svcEnv is one in-process daemon behind a real loopback HTTP server,
// plus the reference results its jobs are checked against.
type svcEnv struct {
	srv      *service.Server
	ts       *httptest.Server
	specs    []service.JobSpec
	refs     []core.Result // direct core.Solve of each spec
	refS     []float64     // how long each of those took, in seconds
	spoolDir string
}

// outDir holds traces, results and temporary spools; set by -out.
var outDir = "benchmark/out"

// startService builds and starts a daemon; spool selects a fresh
// SpoolDir under outDir.
func startService(spool bool) (*svcEnv, error) {
	e := &svcEnv{}
	cfg := service.Config{Workers: clients()}
	if spool {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "spool-")
		if err != nil {
			return nil, err
		}
		e.spoolDir, cfg.SpoolDir = dir, dir
	}
	srv, err := service.New(cfg)
	if err != nil {
		e.removeSpool()
		return nil, err
	}
	srv.Start()
	e.srv = srv
	e.ts = httptest.NewServer(srv.Handler())
	return e, nil
}

func (e *svcEnv) removeSpool() {
	if e.spoolDir != "" {
		os.RemoveAll(e.spoolDir)
	}
}

// stop shuts the daemon down and returns how long Shutdown took.
func (e *svcEnv) stop() float64 {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	e.srv.Shutdown(ctx)
	d := time.Since(t0).Seconds()
	e.removeSpool()
	return d
}

// directSolve is the reference a job is checked against: core.Solve of
// the problem and options the spec itself describes.
func directSolve(spec service.JobSpec) (core.Result, error) {
	p, err := spec.BuildProblem()
	if err != nil {
		return core.Result{}, err
	}
	o, err := spec.Options()
	if err != nil {
		return core.Result{}, err
	}
	return core.Solve(p, o)
}

// setUpService is one repetition of a service workload's set-up: start
// the daemon, solve every distinct spec directly for reference, and
// pre-warm the machine cache with one job per worker per shape.
func setUpService(w workload, seed int64, out *runResult) (*svcEnv, error) {
	e, err := startService(w.Spool)
	if err != nil {
		return nil, err
	}
	e.specs = w.jobSpecs(seed)
	for _, spec := range e.specs {
		t0 := time.Now()
		ref, err := directSolve(spec)
		e.refS = append(e.refS, time.Since(t0).Seconds())
		out.op(checkSolve(ref, err, spec.MaxIter, 0))
		e.refs = append(e.refs, ref)
	}
	e.prewarm(out)
	return e, nil
}

// prewarm runs clients() concurrent jobs per distinct shape, so every
// worker has met every shape once; the cache keeps what fits.
func (e *svcEnv) prewarm(out *runResult) {
	perShape := len(e.specs) / distinctShapes(e.specs)
	var mu sync.Mutex
	for i := 0; i < len(e.specs); i += perShape {
		var wg sync.WaitGroup
		for c := 0; c < clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, reason := e.job(nil, "", e.ts.Client(), e.ts.URL, i)
				mu.Lock()
				out.op(reason)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
}

func distinctShapes(specs []service.JobSpec) int {
	seen := make(map[[3]int]bool)
	for _, s := range specs {
		seen[[3]int{s.NX, s.NY, s.NZ}] = true
	}
	return len(seen)
}

// refsSummary reduces the reference results to the three pinned values:
// the XOR of their fingerprints and total cycles over total iterations
// (neither depends on the seed-drawn spec order), and the largest true
// residual.
func (e *svcEnv) refsSummary() (fp uint64, cycles, residual float64) {
	var cyc, iters int64
	for _, r := range e.refs {
		fp ^= fingerprint(r)
		cyc += r.Telemetry.Cycles.Total()
		iters += int64(r.Iterations)
		residual = math.Max(residual, r.TrueResidual)
	}
	if iters > 0 {
		cycles = float64(cyc) / float64(iters)
	}
	return fp, cycles, residual
}

// httpJSON issues one request and decodes a 2xx JSON body into v.
func httpJSON(c *http.Client, method, url string, body []byte, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkJob holds the daemon to its contract: a job returns the bits
// core.Solve returns.
func checkJob(v service.JobView, ref core.Result) string {
	switch {
	case v.State != service.StateDone:
		return fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error)
	case v.Result == nil:
		return fmt.Sprintf("job %s is done without a result", v.ID)
	case v.Result.Iterations != ref.Iterations || !bitsEqual(v.Result.History, ref.History):
		return fmt.Sprintf("job %s: residual history differs from the direct core.Solve", v.ID)
	case math.Float64bits(v.Result.TrueResidual) != math.Float64bits(ref.TrueResidual):
		return fmt.Sprintf("job %s: true residual %v, direct core.Solve %v", v.ID, v.Result.TrueResidual, ref.TrueResidual)
	case v.Result.Telemetry.Cycles != ref.Telemetry.Cycles:
		return fmt.Sprintf("job %s: cycles %+v, direct core.Solve %+v", v.ID, v.Result.Telemetry.Cycles, ref.Telemetry.Cycles)
	}
	return ""
}

// jobTimes are the client-side durations of one job, in seconds.
type jobTimes struct {
	id      string
	submit  float64 // POST round trip
	latency float64 // submit → terminal state
}

// job submits spec i to the daemon at url, polls it to a terminal
// state and checks the result. c is a loopback client, or one bound
// straight to Handler() for the in-process rung.
func (e *svcEnv) job(rec *recorder, trace string, c *http.Client, url string, i int) (jobTimes, string) {
	root := rec.begin(trace, -1, "service.job")
	defer rec.end(root)
	body, _ := json.Marshal(e.specs[i])
	var v service.JobView
	t0 := time.Now()
	sp := rec.begin(trace, root, "service.submit")
	err := httpJSON(c, http.MethodPost, url+"/v1/jobs", body, &v)
	rec.end(sp)
	jt := jobTimes{submit: time.Since(t0).Seconds()}
	if err != nil {
		return jt, err.Error()
	}
	jt.id = v.ID
	sp = rec.begin(trace, root, "service.wait")
	for !terminal(v.State) {
		time.Sleep(pollInterval)
		poll := rec.begin(trace, sp, "service.poll")
		err = httpJSON(c, http.MethodGet, url+"/v1/jobs/"+v.ID, nil, &v)
		rec.end(poll)
		if err != nil {
			rec.end(sp)
			return jt, err.Error()
		}
	}
	rec.end(sp)
	jt.latency = time.Since(t0).Seconds()
	return jt, checkJob(v, e.refs[i])
}

func terminal(s service.JobState) bool {
	switch s {
	case service.StateDone, service.StateFailed, service.StateCanceled, service.StateExpired:
		return true
	}
	return false
}

// svcWindow is what one closed-loop window observed.
type svcWindow struct {
	elapsed                     float64
	job, submit, read, solution []float64 // seconds; read = status and list
	jobSpec                     []int     // spec index of each entry of job
	serverSolveMean             float64
	cacheHits, cacheMisses      int64
}

// loop runs the workload's mix closed-loop — each client sends its next
// request only after the previous one completed — for seconds, and at
// least until minWrites jobs finished. The read/write interleave and the
// spec rotation are drawn from seed.
func (e *svcEnv) loop(rec *recorder, w workload, writeFrac float64, seed int64, seconds float64, minWrites, minReads int, out *runResult) svcWindow {
	var (
		mu       sync.Mutex
		win      svcWindow
		finished []int // spec index of each finished job, parallel to ids
		ids      []string
		next     atomic.Int64
		writes   atomic.Int64
		reads    atomic.Int64
		wg       sync.WaitGroup
	)
	sum0, n0 := e.scrapeSolveLatency()
	hits0, misses0 := e.srv.CacheStats()
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := e.ts.Client()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for op := 0; time.Since(start).Seconds() < seconds || writes.Load() < int64(minWrites) || reads.Load() < int64(minReads); op++ {
				trace := fmt.Sprintf("%s/c%d-%d", w.Name, c, op)
				mu.Lock()
				haveRead := len(ids) > 0
				mu.Unlock()
				if rng.Float64() < writeFrac || !haveRead {
					i := int(next.Add(1)-1) % len(e.specs)
					jt, reason := e.job(rec, trace, client, e.ts.URL, i)
					writes.Add(1)
					mu.Lock()
					out.op(reason)
					if reason == "" {
						win.job = append(win.job, jt.latency)
						win.jobSpec = append(win.jobSpec, i)
						win.submit = append(win.submit, jt.submit)
						ids, finished = append(ids, jt.id), append(finished, i)
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				k := rng.Intn(len(ids))
				id, spec := ids[k], finished[k]
				mu.Unlock()
				// Six reads in ten are status polls, three fetch the solution,
				// one lists every job; a counter, so a short window has all three.
				pick := float64(reads.Add(1)%10) / 10
				root := rec.begin(trace, -1, "service.read")
				t0 := time.Now()
				var reason string
				switch {
				case pick < 0.6: // status
					var v service.JobView
					if err := httpJSON(client, http.MethodGet, e.ts.URL+"/v1/jobs/"+id, nil, &v); err != nil {
						reason = err.Error()
					} else {
						reason = checkJob(v, e.refs[spec])
					}
				case pick < 0.9: // solution
					var v service.JobView
					if err := httpJSON(client, http.MethodGet, e.ts.URL+"/v1/jobs/"+id+"/solution", nil, &v); err != nil {
						reason = err.Error()
					} else if reason = checkJob(v, e.refs[spec]); reason == "" && !bitsEqual(v.Result.X, e.refs[spec].X) {
						reason = fmt.Sprintf("job %s: solution differs from the direct core.Solve", id)
					}
				default: // list
					var vs []service.JobView
					if err := httpJSON(client, http.MethodGet, e.ts.URL+"/v1/jobs", nil, &vs); err != nil {
						reason = err.Error()
					} else if len(vs) < len(ids) {
						reason = fmt.Sprintf("list returned %d jobs, %d finished", len(vs), len(ids))
					}
				}
				d := time.Since(t0).Seconds()
				rec.end(root)
				mu.Lock()
				out.op(reason)
				if pick >= 0.6 && pick < 0.9 {
					win.solution = append(win.solution, d)
				} else {
					win.read = append(win.read, d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start).Seconds()
	sum1, n1 := e.scrapeSolveLatency()
	if n1 > n0 {
		win.serverSolveMean = (sum1 - sum0) / float64(n1-n0)
	}
	hits1, misses1 := e.srv.CacheStats()
	win.cacheHits, win.cacheMisses = hits1-hits0, misses1-misses0
	return win
}

// scrapeSolveLatency reads the daemon's own solve-latency account from
// /metrics: the sum and count over all backends.
func (e *svcEnv) scrapeSolveLatency() (sum float64, count int64) {
	resp, err := e.ts.Client().Get(e.ts.URL + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(name, "wsesimd_solve_latency_seconds_sum{"):
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				sum += v
			}
		case strings.HasPrefix(name, "wsesimd_solve_latency_seconds_count{"):
			if v, err := strconv.ParseInt(value, 10, 64); err == nil {
				count += v
			}
		}
	}
	return sum, count
}

// runService is the untraced run of a service workload.
func runService(w workload, seed int64, seconds float64, pin *expectation) *runResult {
	out := newRunResult(w, seed, false)
	var env *svcEnv
	var setups, direct []float64 // direct: each spec's fastest direct solve
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.stop()
		}
		t0 := time.Now()
		e, err := setUpService(w, seed, out)
		if err != nil {
			out.op("set-up: " + err.Error())
			return out
		}
		env = e
		setups = append(setups, time.Since(t0).Seconds())
		if direct == nil {
			direct = append(direct, e.refS...)
		}
		for k, d := range e.refS {
			direct[k] = min(direct[k], d)
		}
	}
	defer env.stop()
	// solve_s of a service workload: what its jobs cost without the
	// daemon — the mean over the specs of the direct façade call.
	directS := 0.0
	for _, d := range direct {
		directS += d / float64(len(direct))
	}
	fp, cycles, residual := env.refsSummary()
	out.Fingerprint, out.TrueResidual = hex(fp), residual
	for _, reason := range pin.check(seed, fp, cycles, residual) {
		out.fail(reason)
	}

	win := env.loop(nil, w, w.WriteFrac, seed, seconds, minOps, 0, out)
	if len(win.job) == 0 {
		out.fail("no job finished in the measuring window")
		return out
	}
	out.setSamples("setup_s", setups)
	out.set("solve_s", directS)
	// job_s of a service workload: the floor of each spec's jobs, averaged
	// over the specs, so every shape of the mix counts.
	fastest := make(map[int]float64)
	for k, d := range win.job {
		if f, ok := fastest[win.jobSpec[k]]; !ok || d < f {
			fastest[win.jobSpec[k]] = d
		}
	}
	job := summarize(win.job, "s")
	job.Value = 0
	for _, f := range fastest {
		job.Value += f / float64(len(fastest))
	}
	out.Metrics["job_s"] = job
	out.set("sim_cycles_per_iter", cycles)
	out.set("peak_rss_mb", peakRSSMB())
	return out
}
