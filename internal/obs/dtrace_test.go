package obs

import (
	"context"
	"errors"
	"testing"
)

// treeSink collects exported trees for assertions.
type treeSink struct {
	trees [][]SpanRecord
}

func (s *treeSink) ExportTrace(spans []SpanRecord) { s.trees = append(s.trees, spans) }

// errored reports whether any span of a tree ended non-ok.
func errored(spans []SpanRecord) bool {
	for _, sp := range spans {
		if sp.Status != StatusOK {
			return true
		}
	}
	return false
}

// TestTraceRecorderBuildsTree pins the core lifecycle: a sampled root
// with nested children and typed events flushes, at completion, into
// one exported tree whose spans carry the right parents, statuses and
// events — and the flush waits for children that outlive the root.
func TestTraceRecorderBuildsTree(t *testing.T) {
	sink := &treeSink{}
	rec := NewTraceRecorder(TraceOptions{Sample: 1, Sink: sink})

	root := rec.Root("establish", "H1")
	if !root.Recording() {
		t.Fatal("sample-1 root not recording")
	}
	stage := root.Child("reserve", "H1")
	call := stage.Child("prepare", "H1->H2")
	call.Event(EventRetry, "attempt 2")

	// The participant side: a span parented via the wire context.
	remote := rec.ChildOf(call.Context(), "prepare", "H2")

	call.EndStatus("timeout")
	stage.End()
	root.End()
	// The root has ended but the remote span is still open: the trace
	// must not flush yet.
	if got := len(sink.trees); got != 0 {
		t.Fatalf("trace flushed with %d open span(s) pending", got)
	}
	if got := rec.OpenTraces(); got != 1 {
		t.Fatalf("OpenTraces = %d, want 1", got)
	}
	remote.End()

	if len(sink.trees) != 1 {
		t.Fatalf("sink received %d trees, want 1", len(sink.trees))
	}
	tr := sink.trees[0]
	if len(tr) != 4 {
		t.Fatalf("trace has %d spans, want 4", len(tr))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range tr {
		byName[sp.Name+"@"+sp.Scope] = sp
	}
	if byName["establish@H1"].Parent != 0 {
		t.Error("establish span is not the root")
	}
	if p := byName["prepare@H1->H2"].Parent; p != byName["reserve@H1"].Span {
		t.Errorf("call span parent = %d, want the stage span", p)
	}
	if p := byName["prepare@H2"].Parent; p != byName["prepare@H1->H2"].Span {
		t.Errorf("remote span parent = %d, want the call span", p)
	}
	cs := byName["prepare@H1->H2"]
	if cs.Status != "timeout" {
		t.Errorf("call span status = %q", cs.Status)
	}
	if len(cs.Events) != 1 || cs.Events[0].Type != EventRetry {
		t.Errorf("call span events = %+v, want one retry", cs.Events)
	}
}

// TestTraceRecorderEventOnEndedSpan pins the duplicate-suppression
// path: an event addressed to a span that already ended still attaches,
// as long as the trace is open; after the trace flushes, it is dropped
// silently.
func TestTraceRecorderEventOnEndedSpan(t *testing.T) {
	sink := &treeSink{}
	rec := NewTraceRecorder(TraceOptions{Sample: 1, Sink: sink})
	root := rec.Root("establish", "H1")
	call := root.Child("prepare", "H1->H2")
	sc := call.Context()
	call.End()

	// Call span ended, root still open: the event must land.
	rec.EventOn(sc, EventDuplicateSuppressed, "prepare")
	root.End()
	if len(sink.trees) != 1 {
		t.Fatalf("sink received %d trees, want 1", len(sink.trees))
	}
	var found bool
	for _, sp := range sink.trees[0] {
		for _, ev := range sp.Events {
			if ev.Type == EventDuplicateSuppressed {
				found = true
			}
		}
	}
	if !found {
		t.Error("duplicate-suppressed event on an ended span was lost")
	}

	// Flushed trace: the late event (and a late child) must be inert.
	rec.EventOn(sc, EventDuplicateSuppressed, "late")
	if late := rec.ChildOf(sc, "prepare", "H2"); late.Recording() {
		t.Error("ChildOf recorded under a flushed trace")
	}
	if got := rec.OpenTraces(); got != 0 {
		t.Fatalf("OpenTraces = %d after flush", got)
	}
}

// TestTraceRecorderRescuesErroredTraces pins tail rescue: at a head
// sampling rate no root of this seed wins, an all-ok trace is dropped
// but a trace containing an errored span is exported.
func TestTraceRecorderRescuesErroredTraces(t *testing.T) {
	sink := &treeSink{}
	rec := NewTraceRecorder(TraceOptions{Sample: 1e-9, Seed: 1, Sink: sink})

	ok := rec.Root("establish", "H1")
	if !ok.Recording() {
		t.Fatal("unsampled root not recorded provisionally")
	}
	ok.Child("plan", "H1").End()
	ok.End()
	if got := len(sink.trees); got != 0 {
		t.Fatalf("all-ok unsampled trace exported (%d)", got)
	}

	bad := rec.Root("establish", "H1")
	bad.Child("reserve", "H1").EndStatus("refused")
	bad.End()
	if len(sink.trees) != 1 || !errored(sink.trees[0]) {
		t.Fatalf("errored trace not rescued: %+v", sink.trees)
	}
}

// TestTraceRecorderUnsampledZeroAlloc protects the plan-path fast lane:
// with tracing compiled in but sampling off, the whole span surface —
// root, children, events, context plumbing, exemplar IDs — must not
// allocate at all.
func TestTraceRecorderUnsampledZeroAlloc(t *testing.T) {
	rec := NewTraceRecorder(TraceOptions{Sample: 0})
	if rec != nil {
		t.Fatal("sample 0 built a live recorder")
	}
	ctx := context.Background()
	errBoom := errors.New("boom")
	allocs := testing.AllocsPerRun(1000, func() {
		root := rec.Root("establish", "H1")
		c := root.Child("reserve", "H1")
		c.Event(EventRetry, "attempt 2")
		cctx := ContextWithSpan(ctx, c)
		sp := SpanFromContext(cctx)
		sp.endErr(errBoom, "error")
		if sp.traceID() != "" {
			t.Fatal("inert span has a trace ID")
		}
		rec.EventOn(root.Context(), EventShed, "")
		rec.ChildOf(c.Context(), "prepare", "H2").End()
		root.EndStatus("shed")
	})
	if allocs != 0 {
		t.Fatalf("unsampled tracing path allocates %.1f per op, want 0", allocs)
	}
}

// TestTraceRecorderHeadSampling sanity-checks the sampling roll: with
// probability 0.5 over many all-ok roots, both outcomes occur — some
// trees are exported, the unsampled rest are dropped.
func TestTraceRecorderHeadSampling(t *testing.T) {
	sink := &treeSink{}
	rec := NewTraceRecorder(TraceOptions{Sample: 0.5, Seed: 42, Sink: sink})
	const n = 400
	for i := 0; i < n; i++ {
		rec.Root("establish", "H1").End()
	}
	if got := len(sink.trees); got == 0 || got == n {
		t.Fatalf("sample=0.5 exported %d/%d all-ok trees", got, n)
	}
}
