package transport

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: calls flow normally; consecutive failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe call is
	// let through to test the peer.
	BreakerHalfOpen
	// BreakerOpen: the failure threshold was reached; calls fail fast
	// until the cooldown elapses.
	BreakerOpen
)

// String renders the state for logs and test failures.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes a circuit breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker; non-positive defaults to 3.
	Threshold int
	// Cooldown is how long an open breaker fails fast before allowing a
	// half-open probe; non-positive defaults to 500ms.
	Cooldown time.Duration
	// Now supplies the time; nil defaults to time.Now. Tests inject a
	// manual clock here.
	Now func() time.Time
}

// Breaker is a closed → open → half-open circuit breaker guarding calls
// to one peer. In the closed state, Threshold consecutive failures trip
// it open; open calls fail fast (Allow returns false) until Cooldown
// has elapsed, after which a single probe call is admitted (half-open).
// The probe's success closes the breaker; its failure re-opens it for
// another cooldown. Safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
	onChange func(BreakerState)
}

// NewBreaker creates a closed breaker. onChange (may be nil) is invoked,
// outside the breaker lock, after every state transition.
func NewBreaker(cfg BreakerConfig, onChange func(BreakerState)) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 500 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, onChange: onChange}
}

// Allow reports whether a call may proceed. Open: false until the
// cooldown elapses, then exactly one caller wins the half-open probe
// slot; the rest keep failing fast until the probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // BreakerOpen
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transitionLocked(BreakerHalfOpen)
		b.probing = true
		return true
	}
}

// Success records a completed call: a half-open probe's success (or any
// closed-state success) resets the breaker to closed.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.transitionLocked(BreakerClosed)
	}
}

// Failure records a failed call. In the closed state it counts toward
// the threshold; a half-open probe's failure re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.openedAt = b.cfg.Now()
		b.transitionLocked(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.openedAt = b.cfg.Now()
			b.transitionLocked(BreakerOpen)
		}
	default: // already open (e.g. a losing racer's failure); keep it open
	}
}

// transitionLocked flips the state and schedules the change callback.
// The callback runs on a fresh goroutine so a metrics sink can never
// deadlock against the breaker lock.
func (b *Breaker) transitionLocked(to BreakerState) {
	b.state = to
	if b.onChange != nil {
		fn := b.onChange
		go fn(to)
	}
}
