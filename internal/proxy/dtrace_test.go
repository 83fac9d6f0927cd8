package proxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/transport"
)

// tracedWorld is unreliableWorld with a trace recorder attached, so
// the coordinator and the participant proxies record spans.
func tracedWorld(t *testing.T, fabric transport.Options, opts Options) (*Runtime, *obs.TraceRecorder) {
	t.Helper()
	rec := obs.NewTraceRecorder(nil, obs.TraceOptions{Sample: 1})
	opts.Tracing = rec
	rt, _, _ := unreliableWorld(t, fabric, opts)
	return rt, rec
}

// waitTraces polls until the recorder has retained n completed traces —
// participant spans end asynchronously in the serve goroutines, so the
// flush can trail the coordinator's root-end by a scheduling beat.
func waitTraces(t *testing.T, rec *obs.TraceRecorder, n int) []obs.CompletedTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := rec.Completed()
		if len(done) >= n && rec.OpenTraces() == 0 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d trace(s) completed (%d still open)", len(done), n, rec.OpenTraces())
		}
		time.Sleep(time.Millisecond)
	}
}

// spansNamed filters a trace's spans by name and scope.
func spansNamed(spans []obs.SpanRecord, name, scope string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, sp := range spans {
		if sp.Name == name && sp.Scope == scope {
			out = append(out, sp)
		}
	}
	return out
}

// hasEvent reports whether any span of the trace carries an event of
// the given type.
func hasEvent(spans []obs.SpanRecord, typ string) bool {
	for _, sp := range spans {
		for _, ev := range sp.Events {
			if ev.Type == typ {
				return true
			}
		}
	}
	return false
}

// TestDuplicatedPrepareTracesOneParticipantSpan pins the causal
// propagation contract under duplication: a prepare/commit pair sent
// over a fabric that duplicates every message yields exactly one
// participant span per message (the first copy), while the duplicate
// copy annotates a duplicate-suppressed event instead of opening a
// second span — the tree stays complete and un-doubled.
func TestDuplicatedPrepareTracesOneParticipantSpan(t *testing.T) {
	rt, rec := tracedWorld(t, transport.Options{
		Defaults: transport.RouteConfig{Dup: 1},
	}, Options{})
	fabric := rt.Transport()

	root := rec.Root(obs.StageEstablish, "test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := fabric.Call(ctx, "X", "Y", msgPrepare, prepareRequest{
		id: "t-1", req: qos.ResourceVector{"cpu@Y": 5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Call(ctx, "X", "Y", msgCommit, commitRequest{id: "t-1"}); err != nil {
		t.Fatal(err)
	}
	// Settle enqueues the duplicate copies; the follow-up synchronous
	// call is the processing barrier (the serve loop is FIFO), so by the
	// time it answers, both duplicates have been handled.
	fabric.Settle()
	if _, err := fabric.Call(ctx, "X", "Y", msgAvailability, availabilityRequest{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	done := waitTraces(t, rec, 1)
	spans := done[0].Spans
	if got := spansNamed(spans, msgPrepare, "Y"); len(got) != 1 {
		t.Fatalf("prepare participant spans = %d, want exactly 1 (duplicate must not open a second span)", len(got))
	}
	if got := spansNamed(spans, msgCommit, "Y"); len(got) != 1 {
		t.Fatalf("commit participant spans = %d, want exactly 1", len(got))
	}
	var dupKinds []string
	for _, sp := range spans {
		for _, ev := range sp.Events {
			if ev.Type == obs.EventDuplicateSuppressed {
				dupKinds = append(dupKinds, ev.Detail)
			}
		}
	}
	want := map[string]bool{msgPrepare: false, msgCommit: false}
	for _, k := range dupKinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no duplicate-suppressed event for duplicated %s", k)
		}
	}
}

// TestPartitionedCallSpanTerminatesWithPartition pins the loss
// attribution: a call into a partition ends its span with status
// "partition" and a partition-drop event — never an orphan, never a
// bare timeout when the cause is known.
func TestPartitionedCallSpanTerminatesWithPartition(t *testing.T) {
	rt, rec := tracedWorld(t, transport.Options{}, Options{})
	fabric := rt.Transport()
	fabric.Partition("X", "Y")

	root := rec.Root(obs.StageEstablish, "test")
	ctx, cancel := context.WithTimeout(obs.ContextWithSpan(context.Background(), root), 50*time.Millisecond)
	defer cancel()
	if _, err := fabric.Call(ctx, "X", "Y", msgAvailability, availabilityRequest{}); err == nil {
		t.Fatal("call across a partition succeeded")
	}
	root.EndStatus("error")

	done := waitTraces(t, rec, 1)
	spans := done[0].Spans
	calls := spansNamed(spans, msgAvailability, "X->Y")
	if len(calls) != 1 {
		t.Fatalf("availability call spans = %d, want 1", len(calls))
	}
	if calls[0].Status != "partition" {
		t.Errorf("partitioned call span status = %q, want partition", calls[0].Status)
	}
	if !hasEvent(calls, obs.EventPartitionDrop) {
		t.Error("partitioned call span has no partition-drop event")
	}
	// The request never crossed the partition: no participant span.
	if got := spansNamed(spans, msgAvailability, "Y"); len(got) != 0 {
		t.Errorf("participant spans across a partition = %d, want 0", len(got))
	}
}

// TestBreakerFastFailTracesTerminatedSpan pins the refusal span: a call
// refused by an open circuit breaker still records a terminated child
// span (status circuit_open, breaker-fastfail event) so the trace tree
// stays complete for refused work.
func TestBreakerFastFailTracesTerminatedSpan(t *testing.T) {
	rt, rec := tracedWorld(t, transport.Options{
		Breaker: &transport.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	}, Options{})
	fabric := rt.Transport()
	fabric.Partition("X", "Y")

	root := rec.Root(obs.StageEstablish, "test")
	sctx := obs.ContextWithSpan(context.Background(), root)
	ctx, cancel := context.WithTimeout(sctx, 50*time.Millisecond)
	if _, err := fabric.Call(ctx, "X", "Y", msgAvailability, availabilityRequest{}); err == nil {
		t.Fatal("call across a partition succeeded")
	}
	cancel()
	// The breaker is open now: the next call must fast-fail.
	if _, err := fabric.Call(sctx, "X", "Y", msgAvailability, availabilityRequest{}); !errors.Is(err, transport.ErrCircuitOpen) {
		t.Fatalf("second call error = %v, want ErrCircuitOpen", err)
	}
	root.EndStatus("error")

	done := waitTraces(t, rec, 1)
	calls := spansNamed(done[0].Spans, msgAvailability, "X->Y")
	if len(calls) != 2 {
		t.Fatalf("availability call spans = %d, want 2", len(calls))
	}
	var fastFailed *obs.SpanRecord
	for i := range calls {
		if calls[i].Status == "circuit_open" {
			fastFailed = &calls[i]
		}
	}
	if fastFailed == nil {
		t.Fatal("no call span terminated with status circuit_open")
	}
	if !hasEvent([]obs.SpanRecord{*fastFailed}, obs.EventBreakerFastFail) {
		t.Error("fast-failed span has no breaker-fastfail event")
	}
}

// TestShedEstablishTracesTerminatedRoot pins the overload span: an
// Establish shed at the admission gate records a terminated root span
// with status "shed" and a shed event — refused admissions are visible
// in the trace store, not silent.
func TestShedEstablishTracesTerminatedRoot(t *testing.T) {
	rt, rec := tracedWorld(t, transport.Options{}, Options{MaxInFlight: 1})
	service, binding := pipelineService(t)

	if err := rt.gate.TryAcquire(); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("establish error = %v, want ErrOverloaded", err)
	}

	done := waitTraces(t, rec, 1)
	root := done[0].Spans[0]
	for _, sp := range done[0].Spans {
		if sp.Root() {
			root = sp
		}
	}
	if root.Name != obs.StageEstablish || root.Status != "shed" {
		t.Fatalf("shed root span = %s/%s, want %s/shed", root.Name, root.Status, obs.StageEstablish)
	}
	if !hasEvent(done[0].Spans, obs.EventShed) {
		t.Error("shed trace has no shed event")
	}
}

// TestEstablishTracesFullTree pins the happy-path tree shape: one
// admission over a perfect fabric yields a complete trace — an ok
// establish root, the four stage children in protocol order, fabric
// call spans under the stages, and remote participant spans parented
// under their call spans.
func TestEstablishTracesFullTree(t *testing.T) {
	rt, rec := tracedWorld(t, transport.Options{}, Options{})
	service, binding := pipelineService(t)

	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}

	done := waitTraces(t, rec, 1)
	spans := done[0].Spans
	if done[0].Errored {
		t.Error("successful admission trace marked errored")
	}

	var root obs.SpanRecord
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range spans {
		byID[sp.Span] = sp
		if sp.Root() {
			root = sp
		}
	}
	if root.Name != obs.StageEstablish || root.Status != obs.StatusOK {
		t.Fatalf("root span = %s/%s, want %s/%s", root.Name, root.Status, obs.StageEstablish, obs.StatusOK)
	}

	// The four stages hang directly under the root, in protocol order.
	var stageOrder []string
	for _, sp := range spans {
		if sp.Parent == root.Span {
			stageOrder = append(stageOrder, sp.Name)
		}
	}
	wantStages := []string{obs.StageSnapshot, obs.StageBuild, obs.StagePlan, obs.StageReserve}
	if len(stageOrder) != len(wantStages) {
		t.Fatalf("root has %d stage children %v, want %v", len(stageOrder), stageOrder, wantStages)
	}
	for i, name := range wantStages {
		if stageOrder[i] != name {
			t.Fatalf("stage order = %v, want %v", stageOrder, wantStages)
		}
	}

	// Remote participant spans exist and parent under fabric call spans
	// whose own parents are stage spans — the causal chain
	// root > stage > call > participant survives the wire.
	participants := spansNamed(spans, msgPrepare, "Y")
	if len(participants) != 1 {
		t.Fatalf("prepare participant spans on Y = %d, want 1", len(participants))
	}
	call, ok := byID[participants[0].Parent]
	if !ok {
		t.Fatal("participant span's parent call span missing from the trace")
	}
	if call.Name != msgPrepare || call.Scope != "X->Y" {
		t.Fatalf("participant parent = %s@%s, want %s@X->Y", call.Name, call.Scope, msgPrepare)
	}
	stage, ok := byID[call.Parent]
	if !ok || stage.Name != obs.StageReserve {
		t.Fatalf("call span parent = %+v, want the %s stage", stage, obs.StageReserve)
	}
}
