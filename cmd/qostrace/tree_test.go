package main

import (
	"bytes"
	"strings"
	"testing"

	"qosres/internal/obs"
	"qosres/internal/trace"
)

// span fabricates one SpanEnd event.
func span(tid, sid, parent, name, scope, status string, dur float64) trace.Event {
	return trace.Event{
		Kind: trace.SpanEnd, TraceID: tid, SpanID: sid, ParentID: parent,
		Stage: name, Scope: scope, Status: status, Duration: dur,
	}
}

// TestRoundTripRecorderToForest pins the full pipeline: spans recorded
// by the obs recorder, written through trace.Spans as JSON lines, read
// back and reconstructed by FromEvents come back as one complete tree
// with the recorded hierarchy, statuses, and events.
func TestRoundTripRecorderToForest(t *testing.T) {
	var buf bytes.Buffer
	jsonl := trace.NewJSONL(&buf)
	rec := obs.NewTraceRecorder(obs.TraceOptions{Sample: 1, Sink: trace.Spans(jsonl)})

	root := rec.Root(obs.StageEstablish, "H1")
	reserve := root.Child(obs.StageReserve, "H1")
	call := reserve.Child("prepare", "H1->H2")
	call.Event(obs.EventRetry, "attempt 2")
	remote := rec.ChildOf(call.Context(), "prepare", "H2")
	remote.End()
	call.EndStatus("timeout")
	reserve.End()
	root.End()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	forest := FromEvents(events)
	if !forest.Complete() {
		t.Fatalf("round-tripped forest incomplete: %+v", forest)
	}
	if len(forest.Trees) != 1 {
		t.Fatalf("forest has %d trees, want 1", len(forest.Trees))
	}
	tree := forest.Trees[0]
	if tree.Spans != 4 || tree.Orphans != 0 {
		t.Fatalf("tree spans/orphans = %d/%d, want 4/0", tree.Spans, tree.Orphans)
	}
	if tree.Root == nil || tree.Root.Name != obs.StageEstablish {
		t.Fatalf("root = %+v, want %s", tree.Root, obs.StageEstablish)
	}
	if !tree.Errored() {
		t.Error("tree containing a timeout span not Errored")
	}
	// Hierarchy: establish > reserve > prepare(call) > prepare(remote).
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != obs.StageReserve {
		t.Fatalf("root children = %+v, want one %s", tree.Root.Children, obs.StageReserve)
	}
	callNode := tree.Root.Children[0].Children[0]
	if callNode.Scope != "H1->H2" || callNode.Status != "timeout" {
		t.Fatalf("call node = %+v", callNode)
	}
	if len(callNode.Events) != 1 || callNode.Events[0].Stage != obs.EventRetry {
		t.Fatalf("call node events = %+v, want one retry", callNode.Events)
	}
	if len(callNode.Children) != 1 || callNode.Children[0].Scope != "H2" {
		t.Fatalf("participant node = %+v, want prepare@H2", callNode.Children)
	}
}

// TestFromEventsDetectsBrokenTrees pins the completeness counters:
// orphan spans, rootless traces, multi-root traces, and dangling
// events are each detected and fail Complete().
func TestFromEventsDetectsBrokenTrees(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		check  func(f *Forest) bool
	}{
		{"orphan span", []trace.Event{
			span("t1", "s1", "", "establish", "H1", "ok", 1),
			span("t1", "s2", "missing", "prepare", "H2", "ok", 1),
		}, func(f *Forest) bool { return f.OrphanSpans == 1 }},
		{"rootless trace", []trace.Event{
			span("t1", "s2", "s1", "prepare", "H2", "ok", 1),
		}, func(f *Forest) bool { return f.Rootless == 1 && f.OrphanSpans == 1 }},
		{"multi-root trace", []trace.Event{
			span("t1", "s1", "", "establish", "H1", "ok", 1),
			span("t1", "s2", "", "establish", "H1", "ok", 1),
		}, func(f *Forest) bool { return f.MultiRoot == 1 }},
		{"dangling event", []trace.Event{
			span("t1", "s1", "", "establish", "H1", "ok", 1),
			{Kind: trace.SpanEvent, TraceID: "t1", SpanID: "nope", Stage: "retry"},
		}, func(f *Forest) bool { return f.DanglingEvents == 1 && f.Complete() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := FromEvents(tc.events)
			if !tc.check(f) {
				t.Fatalf("counters = %+v", *f)
			}
			if tc.name != "dangling event" && f.Complete() {
				t.Error("broken forest reported Complete")
			}
		})
	}
}

// TestFromEventsIgnoresLifecycleEvents pins the interleaving contract:
// a JSONL stream mixing session lifecycle events with span events
// reconstructs from the span events alone.
func TestFromEventsIgnoresLifecycleEvents(t *testing.T) {
	f := FromEvents([]trace.Event{
		{Kind: trace.Arrival, Session: 1},
		span("t1", "s1", "", "establish", "H1", "ok", 1),
		{Kind: trace.Reserved, Session: 1},
	})
	if len(f.Trees) != 1 || !f.Complete() {
		t.Fatalf("forest = %+v, want one complete tree", *f)
	}
}

// TestCriticalPathFollowsDominantChild pins the decomposition: the
// path descends, at every span, into the child with the largest
// duration, and self-time is the parent's duration minus its critical
// child's.
func TestCriticalPathFollowsDominantChild(t *testing.T) {
	f := FromEvents([]trace.Event{
		span("t1", "root", "", "establish", "H1", "ok", 10),
		span("t1", "a", "root", "snapshot", "H1", "ok", 2),
		span("t1", "b", "root", "reserve", "H1", "ok", 7),
		span("t1", "c", "b", "prepare", "H1->H2", "ok", 6),
	})
	if len(f.Trees) != 1 {
		t.Fatalf("trees = %d", len(f.Trees))
	}
	path := f.Trees[0].CriticalPath()
	var names []string
	for _, st := range path {
		names = append(names, st.Name)
	}
	want := []string{"establish", "reserve", "prepare"}
	if len(names) != len(want) {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", names, want)
		}
	}
	if self := path[0].Self; self != 3 {
		t.Errorf("root self-time = %g, want 3", self)
	}
	if s := PathString(path); !strings.Contains(s, "establish") || !strings.Contains(s, "prepare") {
		t.Errorf("PathString = %q", s)
	}
}
