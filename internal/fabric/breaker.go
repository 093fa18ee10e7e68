package fabric

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	// breakerClosed: requests flow; consecutive failures are counted.
	breakerClosed breakerState = iota
	// breakerOpen: requests are refused until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: exactly one trial request is admitted; its outcome
	// closes or re-opens the breaker.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a per-worker circuit breaker (DESIGN.md §13). threshold
// consecutive failures open it; after cooldown it half-opens and admits a
// single trial whose outcome decides between closed and open again. It is
// fed from two sides: request outcomes during a sweep, and background
// /healthz probes — a passing probe on an open breaker skips the rest of
// the cooldown (the worker told us it recovered), a failing probe keeps a
// dead worker open without burning sweep attempts on it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // seam for deterministic tests

	state    breakerState
	failures int       // consecutive, while closed
	openedAt time.Time // when state last became open
	trial    bool      // the half-open trial is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a request may be sent to the worker right now and
// claims the half-open trial slot when that is what it grants. Every
// allowed request MUST be followed by success() or failure().
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.trial = true
		return true
	default: // half-open
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// success reports a completed request: the worker is healthy, whatever
// state we were in.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.trial = false
	b.mu.Unlock()
}

// failure reports a failed request: a half-open trial re-opens
// immediately; closed accumulates toward the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case breakerOpen:
		// A straggler failure from before the trip; nothing to update.
	}
}

// probeOK reports a passing health probe: an open breaker moves straight
// to half-open (the next allow() admits the trial) without waiting out the
// cooldown. A closed breaker's failure streak is NOT reset — /healthz
// passing says the process is up, not that requests succeed.
func (b *breaker) probeOK() {
	b.mu.Lock()
	if b.state == breakerOpen {
		b.state = breakerHalfOpen
		b.trial = false
	}
	b.mu.Unlock()
}

// probeFail reports a failing health probe; it counts like a request
// failure so a dead worker opens without wasting sweep attempts.
func (b *breaker) probeFail() { b.failure() }

func (b *breaker) trip() {
	b.state = breakerOpen
	b.failures = 0
	b.trial = false
	b.openedAt = b.now()
}

func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
