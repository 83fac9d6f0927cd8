package transport

import (
	"errors"
	"sync"
)

// ErrOverloaded is returned when a bounded in-flight gate refuses new
// work: the runtime is saturated and sheds the request instead of
// queueing it unboundedly. Callers should treat it like an admission
// refusal — back off and retry, or fail the request upward.
var ErrOverloaded = errors.New("transport: overloaded, request shed")

// Gate is a bounded in-flight admission gate: at most max acquisitions
// may be outstanding at once; excess TryAcquire calls are refused
// immediately with ErrOverloaded rather than queued. The zero max means
// unbounded (the gate always admits). Safe for concurrent use.
type Gate struct {
	mu       sync.Mutex
	max      int
	inflight int
}

// NewGate creates a gate admitting at most max concurrent holders;
// max <= 0 means unbounded.
func NewGate(max int) *Gate {
	if max < 0 {
		max = 0
	}
	return &Gate{max: max}
}

// TryAcquire claims a slot or returns ErrOverloaded, never blocking.
func (g *Gate) TryAcquire() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.max > 0 && g.inflight >= g.max {
		return ErrOverloaded
	}
	g.inflight++
	return nil
}

// Release returns a slot claimed by TryAcquire.
func (g *Gate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight > 0 {
		g.inflight--
	}
}
