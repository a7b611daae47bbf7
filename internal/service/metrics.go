package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds, in seconds. Solves
// span host microseconds to multi-second wafer simulations.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60,
}

// family is one per-backend /metrics counter.
type family int

// The counter families, in the order /metrics renders them.
const (
	famSubmitted family = iota
	famCompleted
	famFailed
	famRetried
	famSuspended
	famCanceled
	famExpired
	famFallback
	famBreakerTrips
	numFamilies
)

var familyNames = [numFamilies]string{
	famSubmitted:    "wsesimd_jobs_submitted_total",
	famCompleted:    "wsesimd_jobs_completed_total",
	famFailed:       "wsesimd_jobs_failed_total",
	famRetried:      "wsesimd_jobs_retried_total",
	famSuspended:    "wsesimd_jobs_suspended_total",
	famCanceled:     "wsesimd_jobs_canceled_total",
	famExpired:      "wsesimd_jobs_expired_total",
	famFallback:     "wsesimd_fallback_solves_total",
	famBreakerTrips: "wsesimd_breaker_trips_total",
}

// stateFamily is the family each outcome Server.finish books counts
// into; a job written back to queued is a retry.
var stateFamily = map[JobState]family{
	StateQueued:    famRetried,
	StateSuspended: famSuspended,
	StateDone:      famCompleted,
	StateFailed:    famFailed,
	StateCanceled:  famCanceled,
	StateExpired:   famExpired,
}

// backendMetrics accumulates one backend's counters. Guarded by
// metrics.mu.
type backendMetrics struct {
	n             [numFamilies]int64
	latencySum    float64 // seconds, completed solves
	latencyBucket []int64 // cumulative-at-scrape, stored per-bucket
}

// metrics is the /metrics registry: plain counters under a mutex,
// rendered in the Prometheus text exposition format. No client library
// — the format is five lines of fmt.
type metrics struct {
	start time.Time

	mu          sync.Mutex
	per         map[string]*backendMetrics
	quarantined int64 // spool files quarantined (not per-backend)
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), per: make(map[string]*backendMetrics)}
}

func (m *metrics) backend(name string) *backendMetrics {
	bm := m.per[name]
	if bm == nil {
		bm = &backendMetrics{latencyBucket: make([]int64, len(latencyBuckets))}
		m.per[name] = bm
	}
	return bm
}

// count adds one to a backend's family.
func (m *metrics) count(backend string, f family) {
	m.mu.Lock()
	m.backend(backend).n[f]++
	m.mu.Unlock()
}

// ended counts an outcome into its state's family; a completed solve
// also lands in the latency histogram, d being its solve time.
func (m *metrics) ended(backend string, state JobState, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	bm := m.backend(backend)
	bm.n[stateFamily[state]]++
	if state != StateDone {
		return
	}
	bm.latencySum += sec
	for i, ub := range latencyBuckets {
		if sec <= ub {
			bm.latencyBucket[i]++
			break
		}
	}
}

func (m *metrics) quarantine() {
	m.mu.Lock()
	m.quarantined++
	m.mu.Unlock()
}

// write renders the registry. queueDepth, running and the cache
// counters come from the server, which owns those gauges.
func (m *metrics) write(w io.Writer, queueDepth, running int, cacheHits, cacheMisses int64) {
	now := time.Now()
	up := now.Sub(m.start).Seconds()
	fmt.Fprintf(w, "# TYPE wsesimd_uptime_seconds gauge\nwsesimd_uptime_seconds %g\n", up)
	fmt.Fprintf(w, "# TYPE wsesimd_queue_depth gauge\nwsesimd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# TYPE wsesimd_jobs_running gauge\nwsesimd_jobs_running %d\n", running)
	fmt.Fprintf(w, "# TYPE wsesimd_machine_cache_hits_total counter\nwsesimd_machine_cache_hits_total %d\n", cacheHits)
	fmt.Fprintf(w, "# TYPE wsesimd_machine_cache_misses_total counter\nwsesimd_machine_cache_misses_total %d\n", cacheMisses)
	rate := 0.0
	if total := cacheHits + cacheMisses; total > 0 {
		rate = float64(cacheHits) / float64(total)
	}
	fmt.Fprintf(w, "# TYPE wsesimd_machine_cache_hit_rate gauge\nwsesimd_machine_cache_hit_rate %g\n", rate)

	m.mu.Lock()
	fmt.Fprintf(w, "# TYPE wsesimd_spool_quarantined_total counter\nwsesimd_spool_quarantined_total %d\n", m.quarantined)
	names := make([]string, 0, len(m.per))
	for name := range m.per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bm := m.per[name]
		for f, metric := range familyNames {
			fmt.Fprintf(w, "%s{backend=%q} %d\n", metric, name, bm.n[f])
		}
		completed := bm.n[famCompleted]
		if up > 0 {
			fmt.Fprintf(w, "wsesimd_solve_qps{backend=%q} %g\n", name, float64(completed)/up)
		}
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += bm.latencyBucket[i]
			fmt.Fprintf(w, "wsesimd_solve_latency_seconds_bucket{backend=%q,le=%q} %d\n", name, fmt.Sprintf("%g", ub), cum)
		}
		fmt.Fprintf(w, "wsesimd_solve_latency_seconds_bucket{backend=%q,le=\"+Inf\"} %d\n", name, completed)
		fmt.Fprintf(w, "wsesimd_solve_latency_seconds_sum{backend=%q} %g\n", name, bm.latencySum)
		fmt.Fprintf(w, "wsesimd_solve_latency_seconds_count{backend=%q} %d\n", name, completed)
	}
	m.mu.Unlock()
}
