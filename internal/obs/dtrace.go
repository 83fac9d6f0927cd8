// Distributed tracing: causal trace contexts propagated across the
// transport fabric, recorded as hierarchical span trees with typed
// events, head-based sampling plus always-sample-on-error tail rescue,
// and a bounded resident-trace store (LRU by root completion).
//
// The recorder follows the package's nil-is-inert discipline: a nil
// *TraceRecorder is a valid no-op recorder, the zero ActiveSpan is
// inert, and with sampling off the hot path never locks, never reads
// the clock, and never allocates.
package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// MetricTraceEvictions counts completed traces evicted from the
// recorder's bounded resident store.
const MetricTraceEvictions = "qosres_trace_evictions_total"

// Span event types: protocol adversities annotated on the owning span.
const (
	// EventRetry marks an admission retry attempt.
	EventRetry = "retry"
	// EventBackoff marks a backoff wait before a retry.
	EventBackoff = "backoff"
	// EventBreakerFastFail marks a call refused by an open breaker.
	EventBreakerFastFail = "breaker_fastfail"
	// EventShed marks an admission refused by the in-flight gate.
	EventShed = "shed"
	// EventDeadlineExceeded marks work abandoned at a context deadline.
	EventDeadlineExceeded = "deadline_exceeded"
	// EventDegradedToCached marks an availability snapshot served from a
	// cached (aged) report after a fabric failure.
	EventDegradedToCached = "degraded_to_cached"
	// EventPartitionDrop marks a delivery dropped by a network partition.
	EventPartitionDrop = "partition_drop"
	// EventLossDrop marks a delivery dropped by the loss knob.
	EventLossDrop = "loss_drop"
	// EventDuplicateSuppressed marks a duplicated delivery suppressed by
	// the receiver (one span per logical message, not per copy).
	EventDuplicateSuppressed = "duplicate_suppressed"
	// EventBatchRound marks a member joining a group-commit round; the
	// detail carries the round size.
	EventBatchRound = "batch_round"
)

// Span statuses. Any status other than "" or StatusOK marks the span —
// and its whole trace — as errored, which triggers tail rescue.
const (
	StatusOK = "ok"
)

// SpanContext is the wire-propagated causal identity of a span: enough
// for a remote participant to parent its own spans under the caller's.
// The zero value is "not recording".
type SpanContext struct {
	Trace uint64
	Span  uint64
	// Sampled reports that the trace is being recorded (head-sampled or
	// provisionally retained for error rescue).
	Sampled bool
}

// SpanEventRecord is one typed event annotated on a span.
type SpanEventRecord struct {
	At     time.Time
	Type   string
	Detail string
}

// SpanRecord is one completed span of a trace tree.
type SpanRecord struct {
	Trace  uint64
	Span   uint64
	Parent uint64 // 0 for roots
	Name   string
	Scope  string
	Start  time.Time
	Dur    time.Duration
	Status string
	Events []SpanEventRecord
}

// Root reports whether the span is a trace root.
func (s SpanRecord) Root() bool { return s.Parent == 0 }

// TraceSink receives the spans of retained traces, one call per span,
// at trace completion (root ended and every child span ended).
type TraceSink interface {
	ExportSpan(SpanRecord)
}

// TraceOptions configures a recorder.
type TraceOptions struct {
	// Sample is the head-sampling probability in [0,1]. 0 disables
	// head sampling (only error rescue, if enabled, retains traces).
	Sample float64
	// RescueErrors retains unsampled traces whose tree contains at
	// least one errored span (tail rescue).
	RescueErrors bool
	// MaxResident caps completed traces kept in memory; the oldest
	// completion is evicted first. Defaults to 512.
	MaxResident int
	// Seed seeds the head-sampling roll for reproducible runs.
	Seed int64
	// Sink, when non-nil, receives every span of retained traces.
	Sink TraceSink
}

// CompletedTrace is one retained trace tree, spans in end order.
type CompletedTrace struct {
	Trace   uint64
	Spans   []SpanRecord
	Errored bool
}

// traceBuf accumulates one in-flight trace.
type traceBuf struct {
	id        uint64
	sampled   bool
	errored   bool
	rootEnded bool
	open      int
	spans     []SpanRecord
	// openEvents holds events of spans that have not ended yet.
	openEvents map[uint64][]SpanEventRecord
}

// TraceRecorder creates, collects and retains trace trees. A nil
// recorder is a valid no-op. Safe for concurrent use.
type TraceRecorder struct {
	mu        sync.Mutex
	rng       *rand.Rand
	sample    float64
	rescue    bool
	capacity  int
	sink      TraceSink
	nextTrace uint64
	nextSpan  uint64
	building  map[uint64]*traceBuf
	done      []CompletedTrace
	evictions *Counter
	// exports tracks in-flight sink export loops: a completed tree is
	// removed from building before its spans are written to the sink, so
	// OpenTraces()==0 alone does not mean the sink has seen everything.
	exports sync.WaitGroup
}

// NewTraceRecorder creates a recorder. The registry (nil allowed) hosts
// the eviction counter.
func NewTraceRecorder(reg *Registry, o TraceOptions) *TraceRecorder {
	if o.MaxResident <= 0 {
		o.MaxResident = 512
	}
	if o.Sample < 0 {
		o.Sample = 0
	}
	if o.Sample > 1 {
		o.Sample = 1
	}
	return &TraceRecorder{
		rng:      rand.New(rand.NewSource(o.Seed)),
		sample:   o.Sample,
		rescue:   o.RescueErrors,
		capacity: o.MaxResident,
		sink:     o.Sink,
		building: make(map[uint64]*traceBuf),
		evictions: reg.Counter(MetricTraceEvictions,
			"Completed traces evicted from the bounded resident store."),
	}
}

// Root starts a new trace with a root span, rolling head sampling.
// Returns an inert span (Recording() false) when the trace is not
// retained, at zero allocation cost.
func (r *TraceRecorder) Root(name, scope string) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	// sample and rescue are immutable after construction; with both off
	// the recorder can bail before touching the lock or the clock.
	if r.sample <= 0 && !r.rescue {
		return ActiveSpan{}
	}
	r.mu.Lock()
	sampled := r.sample > 0 && r.rng.Float64() < r.sample
	if !sampled && !r.rescue {
		r.mu.Unlock()
		return ActiveSpan{}
	}
	r.nextTrace++
	r.nextSpan++
	tid, sid := r.nextTrace, r.nextSpan
	r.building[tid] = &traceBuf{
		id: tid, sampled: sampled, open: 1,
		openEvents: make(map[uint64][]SpanEventRecord),
	}
	r.mu.Unlock()
	return ActiveSpan{rec: r, trace: tid, span: sid, name: name, scope: scope,
		start: time.Now()}
}

// ChildOf starts a span causally parented under a remote caller's span
// context — the participant side of cross-fabric propagation. Inert
// when the context is unsampled or its trace is no longer resident
// (late delivery after root completion).
func (r *TraceRecorder) ChildOf(sc SpanContext, name, scope string) ActiveSpan {
	if r == nil || !sc.Sampled {
		return ActiveSpan{}
	}
	r.mu.Lock()
	buf := r.building[sc.Trace]
	if buf == nil || buf.rootEnded {
		r.mu.Unlock()
		return ActiveSpan{}
	}
	r.nextSpan++
	sid := r.nextSpan
	buf.open++
	r.mu.Unlock()
	return ActiveSpan{rec: r, trace: sc.Trace, span: sid, parent: sc.Span,
		name: name, scope: scope, start: time.Now()}
}

// EventOn annotates an event on the span identified by a remote
// context — used for adversities observed away from the span's owner
// (e.g. a duplicated delivery suppressed by the receiver). The event
// attaches to the span whether it is still open or already ended, as
// long as its trace is resident; otherwise it is dropped silently.
func (r *TraceRecorder) EventOn(sc SpanContext, typ, detail string) {
	if r == nil || !sc.Sampled {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := r.building[sc.Trace]
	if buf == nil {
		return
	}
	ev := SpanEventRecord{At: time.Now(), Type: typ, Detail: detail}
	for i := range buf.spans {
		if buf.spans[i].Span == sc.Span {
			buf.spans[i].Events = append(buf.spans[i].Events, ev)
			return
		}
	}
	// Not ended yet: park the event with the open span; endSpan folds
	// the accumulated events into the record.
	buf.openEvents[sc.Span] = append(buf.openEvents[sc.Span], ev)
}

// startChild registers a child span under an open local parent.
func (r *TraceRecorder) startChild(parent ActiveSpan, name, scope string) ActiveSpan {
	r.mu.Lock()
	buf := r.building[parent.trace]
	if buf == nil || buf.rootEnded {
		r.mu.Unlock()
		return ActiveSpan{}
	}
	r.nextSpan++
	sid := r.nextSpan
	buf.open++
	r.mu.Unlock()
	return ActiveSpan{rec: r, trace: parent.trace, span: sid, parent: parent.span,
		name: name, scope: scope, start: time.Now()}
}

// event records an event on an open local span.
func (r *TraceRecorder) event(s ActiveSpan, typ, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := r.building[s.trace]
	if buf == nil {
		return
	}
	buf.openEvents[s.span] = append(buf.openEvents[s.span],
		SpanEventRecord{At: time.Now(), Type: typ, Detail: detail})
}

// endSpan completes a span. When the root has ended and no spans
// remain open, the trace is flushed: exported to the sink (if
// retained) and moved into the bounded completed store.
func (r *TraceRecorder) endSpan(s ActiveSpan, status string) {
	var flushed *traceBuf
	r.mu.Lock()
	buf := r.building[s.trace]
	if buf == nil {
		r.mu.Unlock()
		return
	}
	rec := SpanRecord{
		Trace: s.trace, Span: s.span, Parent: s.parent,
		Name: s.name, Scope: s.scope,
		Start: s.start, Dur: time.Since(s.start), Status: status,
		Events: buf.openEvents[s.span],
	}
	delete(buf.openEvents, s.span)
	buf.spans = append(buf.spans, rec)
	buf.open--
	if status != "" && status != StatusOK {
		buf.errored = true
	}
	if s.parent == 0 {
		buf.rootEnded = true
	}
	if buf.rootEnded && buf.open <= 0 {
		delete(r.building, s.trace)
		if buf.sampled || (r.rescue && buf.errored) {
			r.done = append(r.done, CompletedTrace{
				Trace: buf.id, Spans: buf.spans, Errored: buf.errored})
			for len(r.done) > r.capacity {
				r.done = r.done[1:]
				r.evictions.Inc()
			}
			flushed = buf
			r.exports.Add(1)
		}
	}
	r.mu.Unlock()
	if flushed != nil {
		if r.sink != nil {
			for _, sp := range flushed.spans {
				r.sink.ExportSpan(sp)
			}
		}
		r.exports.Done()
	}
}

// DrainExports blocks until every in-flight sink export has finished.
// Call after the last span has ended (OpenTraces()==0) and before
// closing or flushing the sink: trees are removed from the open table
// before their spans are written, so without this wait a caller can
// flush the sink mid-export and tear the last tree.
func (r *TraceRecorder) DrainExports() {
	if r == nil {
		return
	}
	r.exports.Wait()
}

// OpenTraces returns the number of traces whose tree is not yet
// complete (root or some span still open).
func (r *TraceRecorder) OpenTraces() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.building)
}

// Completed returns a snapshot of the retained trace trees,
// oldest-completion first.
func (r *TraceRecorder) Completed() []CompletedTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CompletedTrace, len(r.done))
	copy(out, r.done)
	return out
}

// ActiveSpan is an in-progress span. The zero value is inert: every
// method is a no-op that never locks, never reads the clock, and
// never allocates. Pass by value.
type ActiveSpan struct {
	rec    *TraceRecorder
	trace  uint64
	span   uint64
	parent uint64
	name   string
	scope  string
	start  time.Time
}

// Recording reports whether the span records anything.
func (s ActiveSpan) Recording() bool { return s.rec != nil }

// Context returns the wire-propagatable causal identity of the span.
func (s ActiveSpan) Context() SpanContext {
	if s.rec == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.span, Sampled: true}
}

// TraceID renders the trace identifier as fixed-width hex — the
// exemplar format attached to histogram buckets.
func (s ActiveSpan) TraceID() string {
	if s.rec == nil {
		return ""
	}
	return TraceIDString(s.trace)
}

// TraceIDString renders a trace identifier as fixed-width hex.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// Child starts a child span under this span.
func (s ActiveSpan) Child(name, scope string) ActiveSpan {
	if s.rec == nil {
		return ActiveSpan{}
	}
	return s.rec.startChild(s, name, scope)
}

// Event annotates a typed event on the span.
func (s ActiveSpan) Event(typ, detail string) {
	if s.rec == nil {
		return
	}
	s.rec.event(s, typ, detail)
}

// End completes the span with StatusOK.
func (s ActiveSpan) End() {
	if s.rec == nil {
		return
	}
	s.rec.endSpan(s, StatusOK)
}

// EndStatus completes the span with an explicit status; anything other
// than "" or StatusOK marks the trace errored (tail rescue).
func (s ActiveSpan) EndStatus(status string) {
	if s.rec == nil {
		return
	}
	if status == "" {
		status = StatusOK
	}
	s.rec.endSpan(s, status)
}

// EndErr completes the span: StatusOK when err is nil, otherwise the
// status given (or "error" when empty).
func (s ActiveSpan) EndErr(err error, status string) {
	if s.rec == nil {
		return
	}
	if err == nil {
		s.rec.endSpan(s, StatusOK)
		return
	}
	if status == "" {
		status = "error"
	}
	s.rec.endSpan(s, status)
}

// spanCtxKey keys the active span in a context.
type spanCtxKey struct{}

// ContextWithSpan attaches an active span to a context. Inert spans
// return the context unchanged (no allocation on the unsampled path).
func ContextWithSpan(ctx context.Context, s ActiveSpan) context.Context {
	if s.rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active span attached to the context, or
// the inert zero span.
func SpanFromContext(ctx context.Context) ActiveSpan {
	if ctx == nil {
		return ActiveSpan{}
	}
	if s, ok := ctx.Value(spanCtxKey{}).(ActiveSpan); ok {
		return s
	}
	return ActiveSpan{}
}
