// Package trace records structured session-level events from simulation
// runs and live runtimes: arrivals, plan computations, reservation
// outcomes, and releases — and, converted by Spans, the finished span
// trees of the distributed-trace recorder. Tracers are pluggable sinks;
// the package provides a bounded in-memory ring (for tests and
// postmortems) and a JSON Lines writer (for offline analysis).
package trace

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
)

// Kind classifies an event.
type Kind int

// Event kinds, in session lifecycle order.
const (
	// Arrival is a session arrival before planning.
	Arrival Kind = iota
	// Planned is a successfully computed reservation plan.
	Planned
	// PlanFailed is a session with no feasible plan.
	PlanFailed
	// Reserved is a successful multi-resource reservation.
	Reserved
	// ReserveFailed is a plan that failed at reservation time (stale
	// observations).
	ReserveFailed
	// Released is a completed session returning its resources.
	Released
	// SpanEnd is one completed span of a distributed trace tree (see
	// the Trace/Span/Parent/Scope/Status fields); written by Spans at
	// trace completion.
	SpanEnd
	// SpanEvent is one typed adversity event (retry, shed, partition
	// drop, duplicate suppressed, ...) annotated on a span of a
	// distributed trace tree.
	SpanEvent
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Planned:
		return "planned"
	case PlanFailed:
		return "plan_failed"
	case Reserved:
		return "reserved"
	case ReserveFailed:
		return "reserve_failed"
	case Released:
		return "released"
	case SpanEnd:
		return "span_end"
	case SpanEvent:
		return "span_event"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kinds lists every event kind in lifecycle order.
func kinds() []Kind {
	return []Kind{Arrival, Planned, PlanFailed, Reserved, ReserveFailed, Released,
		SpanEnd, SpanEvent}
}

// kindFromString parses a Kind's String rendering.
func kindFromString(s string) (Kind, bool) {
	for _, k := range kinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its string name, keeping JSONL traces
// machine-readable without magic numbers.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(k.String())), nil
}

// UnmarshalJSON parses a string kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("trace: kind must be a JSON string: %w", err)
	}
	parsed, ok := kindFromString(s)
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = parsed
	return nil
}

// Event is one session-lifecycle event.
type Event struct {
	At      broker.Time `json:"at"`
	Kind    Kind        `json:"kind"`
	Session uint64      `json:"session"`
	// Service is the requested service's name.
	Service string `json:"service,omitempty"`
	// Class is the paper's session class label (Norm.-short, ...).
	Class string `json:"class,omitempty"`
	// Level is the selected end-to-end QoS level name (Planned/Reserved).
	Level string `json:"level,omitempty"`
	// Rank is the paper-style level number.
	Rank int `json:"rank,omitempty"`
	// Psi is the plan's bottleneck contention index.
	Psi float64 `json:"psi,omitempty"`
	// Bottleneck is the plan's bottleneck resource.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Path is the dash-joined selected path (chain services).
	Path string `json:"path,omitempty"`
	// Stage names the span of a SpanEnd event (establish, snapshot,
	// prepare, ...; see package obs for the stage vocabulary) or the
	// event type of a SpanEvent.
	Stage string `json:"stage,omitempty"`
	// Duration is the wall-clock seconds a SpanEnd event's span took, or
	// a SpanEvent's offset from its span's start.
	Duration float64 `json:"duration,omitempty"`
	// TraceID is the distributed trace identifier (fixed-width hex) of
	// SpanEnd/SpanEvent events.
	TraceID string `json:"trace,omitempty"`
	// SpanID is the span identifier (hex) of SpanEnd/SpanEvent events.
	SpanID string `json:"span,omitempty"`
	// ParentID is the parent span identifier (hex); empty for roots.
	ParentID string `json:"parent,omitempty"`
	// Scope locates where the span ran (a host, or a route "from->to").
	Scope string `json:"scope,omitempty"`
	// Status is the span's terminal status ("ok", "timeout",
	// "partition", "circuit_open", ...).
	Status string `json:"status,omitempty"`
	// Detail carries free-form SpanEvent context (e.g. attempt number).
	Detail string `json:"detail,omitempty"`
}

// Tracer consumes events. Implementations must be safe for use from a
// single simulation goroutine; the Ring is additionally safe for
// concurrent use.
type Tracer interface {
	Trace(Event)
}

// Nop discards every event.
type Nop struct{}

// Trace implements Tracer.
func (Nop) Trace(Event) {}

// Ring keeps the last N events in memory.
type Ring struct {
	mu     sync.Mutex
	events []Event
	next   int
	full   bool
}

// NewRing creates a ring holding up to n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{events: make([]Event, n)}
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[r.next] = ev
	r.next = (r.next + 1) % len(r.events)
	if r.next == 0 {
		r.full = true
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.events)
	}
	return r.next
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Trace implements Tracer.
func (m Multi) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Spans returns the recorder sink that writes each finished span tree
// into t: one SpanEnd event per span, in the tree's end order, each
// followed by one SpanEvent per annotation. Timestamps are wall-clock
// seconds since the call, so a JSONL file orders and offsets spans
// without leaking absolute wall time.
func Spans(t Tracer) obs.TraceSink {
	return spanSink{t: t, t0: time.Now()}
}

type spanSink struct {
	t  Tracer
	t0 time.Time
}

func (s spanSink) ExportTrace(spans []obs.SpanRecord) {
	for _, sp := range spans {
		at := broker.Time(sp.Start.Sub(s.t0).Seconds())
		tid := obs.TraceIDString(sp.Trace)
		sid := obs.TraceIDString(sp.Span)
		parent := ""
		if sp.Parent != 0 {
			parent = obs.TraceIDString(sp.Parent)
		}
		s.t.Trace(Event{
			At: at, Kind: SpanEnd,
			Stage: sp.Name, Scope: sp.Scope, Status: sp.Status,
			Duration: sp.Dur.Seconds(),
			TraceID:  tid, SpanID: sid, ParentID: parent,
		})
		for _, ev := range sp.Events {
			s.t.Trace(Event{
				At: at, Kind: SpanEvent,
				Stage: ev.Type, Detail: ev.Detail,
				Duration: ev.At.Sub(sp.Start).Seconds(),
				TraceID:  tid, SpanID: sid,
			})
		}
	}
}
