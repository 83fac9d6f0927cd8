package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: 1, Kind: Arrival, Session: 1, Service: "S1", Class: "Norm.-short"},
		{At: 1.25, Kind: Planned, Session: 1, Service: "S1", Class: "Norm.-short",
			Level: "Qp", Rank: 3, Psi: 0.25, Bottleneck: `cpu@H1`, Path: "Qa-Qb,c"},
		{At: 1.25, Kind: SpanEnd, Stage: "plan", Duration: 12.5e-6,
			TraceID: "0000000000000001", SpanID: "2", ParentID: "1", Scope: "H1", Status: "ok"},
		{At: 2, Kind: Reserved, Session: 1, Service: "S1", Class: "Norm.-short",
			Level: "Qp", Rank: 3, Psi: 0.25, Bottleneck: `cpu@H1`},
		{At: 9, Kind: Released, Session: 1, Service: "S1", Class: "Norm.-short"},
	}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, ev := range events {
		j.Trace(ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Kinds must be string names on the wire.
	if out := buf.String(); !strings.Contains(out, `"kind":"planned"`) {
		t.Fatalf("kind not a string name:\n%s", out)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip returned %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadJSONLRejectsBadLines(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"arrival\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"warp\"}\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// failAfter errors every write once n bytes have been accepted.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

func TestJSONLLatchesWriteError(t *testing.T) {
	sink := &failAfter{n: 1, err: errors.New("disk full")}
	j := NewJSONL(sink)
	for i := 0; i < 100000; i++ {
		j.Trace(Event{Kind: Arrival, Session: uint64(i)})
	}
	if err := j.Close(); !errors.Is(err, sink.err) {
		t.Fatalf("close error = %v, want latched %v", err, sink.err)
	}
	if err := j.Close(); !errors.Is(err, sink.err) {
		t.Fatalf("close must keep reporting the latched error, got %v", err)
	}
}

func TestKindParsing(t *testing.T) {
	for _, k := range kinds() {
		parsed, ok := kindFromString(k.String())
		if !ok || parsed != k {
			t.Errorf("round trip failed for %v", k)
		}
	}
	if _, ok := kindFromString("nope"); ok {
		t.Fatal("unknown kind parsed")
	}
}
