package trace

import (
	"sync"
	"testing"
	"time"

	"qosres/internal/obs"
)

func ev(k Kind, session uint64) Event {
	return Event{At: 1, Kind: k, Session: session, Service: "S1", Class: "Norm.-short"}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Arrival: "arrival", Planned: "planned", PlanFailed: "plan_failed",
		Reserved: "reserved", ReserveFailed: "reserve_failed", Released: "released",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestRingRetainsLastN(t *testing.T) {
	r := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		r.Trace(ev(Arrival, i))
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	events := r.Events()
	for i, want := range []uint64{3, 4, 5} {
		if events[i].Session != want {
			t.Fatalf("events = %+v", events)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Trace(ev(Arrival, 1))
	r.Trace(ev(Planned, 1))
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	events := r.Events()
	if len(events) != 2 || events[0].Kind != Arrival || events[1].Kind != Planned {
		t.Fatalf("events = %+v", events)
	}
}

func TestRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Trace(ev(Arrival, 1))
	r.Trace(ev(Arrival, 2))
	if r.Len() != 1 || r.Events()[0].Session != 2 {
		t.Fatal("size-0 ring must clamp to 1 and keep the latest")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 100; i++ {
				r.Trace(ev(Arrival, i))
				_ = r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi{a, b, Nop{}}
	m.Trace(ev(Planned, 1))
	m.Trace(ev(Planned, 2))
	for _, r := range []*Ring{a, b} {
		if got := r.Events(); len(got) != 2 || got[0].Session != 1 || got[1].Session != 2 {
			t.Fatalf("fanned-out events = %+v", got)
		}
	}
}

// TestSpansWritesTreeInEndOrder pins the span-to-event conversion: one
// SpanEnd per span in the tree's end order, each followed by its
// annotations as SpanEvents, with hex IDs and an empty parent for the
// root.
func TestSpansWritesTreeInEndOrder(t *testing.T) {
	ring := NewRing(8)
	start := time.Now()
	Spans(ring).ExportTrace([]obs.SpanRecord{
		{Trace: 1, Span: 2, Parent: 1, Name: "prepare", Scope: "H1->H2", Start: start,
			Dur: time.Millisecond, Status: "timeout",
			Events: []obs.SpanEventRecord{{At: start.Add(time.Microsecond), Type: obs.EventRetry, Detail: "attempt 2"}}},
		{Trace: 1, Span: 1, Name: "establish", Scope: "H1", Start: start, Dur: 2 * time.Millisecond, Status: "ok"},
	})
	got := ring.Events()
	want := []Event{
		{Kind: SpanEnd, Stage: "prepare", Scope: "H1->H2", Status: "timeout", Duration: 0.001,
			TraceID: "0000000000000001", SpanID: "0000000000000002", ParentID: "0000000000000001"},
		{Kind: SpanEvent, Stage: obs.EventRetry, Detail: "attempt 2", Duration: 1e-6,
			TraceID: "0000000000000001", SpanID: "0000000000000002"},
		{Kind: SpanEnd, Stage: "establish", Scope: "H1", Status: "ok", Duration: 0.002,
			TraceID: "0000000000000001", SpanID: "0000000000000001"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		got[i].At = 0
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
