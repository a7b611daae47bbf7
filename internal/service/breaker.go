package service

import (
	"sync"
	"time"
)

// breaker is a per-backend circuit breaker. Consecutive genuine solve
// failures (not suspends, cancels or deadline expiries) trip a
// backend's circuit open for a cooldown; while open, attempts on that
// backend are refused up front — and, when the job spec allows it, a
// simulated-backend job falls back to the bit-identical host solve
// instead. After the cooldown a single probe attempt is let through
// (half-open); its success closes the circuit, its failure re-opens it
// for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test seam; nil = time.Now

	mu  sync.Mutex
	per map[string]*breakerState
}

type breakerState struct {
	consecutive int       // failures since the last success
	openUntil   time.Time // zero = closed
	probing     bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, per: make(map[string]*breakerState)}
}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

func (b *breaker) state(backend string) *breakerState {
	st := b.per[backend]
	if st == nil {
		st = &breakerState{}
		b.per[backend] = st
	}
	return st
}

// allow reports whether an attempt on the backend may run. An open
// circuit refuses attempts until its cooldown elapses, then admits one
// half-open probe at a time.
func (b *breaker) allow(backend string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(backend)
	if st.openUntil.IsZero() {
		return true
	}
	if b.clock().Before(st.openUntil) || st.probing {
		return false
	}
	st.probing = true
	return true
}

// success records a completed solve: the circuit closes.
func (b *breaker) success(backend string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(backend)
	st.consecutive = 0
	st.openUntil = time.Time{}
	st.probing = false
}

// failure records a genuine solve failure, returning true when it trips
// the circuit open (threshold reached, or a half-open probe failed).
// Failures while already open extend nothing and count no extra trip.
func (b *breaker) failure(backend string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(backend)
	st.consecutive++
	wasOpen := !st.openUntil.IsZero() && b.clock().Before(st.openUntil)
	if st.probing || (!wasOpen && st.consecutive >= b.threshold) {
		st.openUntil = b.clock().Add(b.cooldown)
		st.probing = false
		return true
	}
	return false
}
