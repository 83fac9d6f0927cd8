package proxy

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/topo"
)

// batchedWorld is twoHostWorld with the group-commit front end enabled
// and live admission metrics, with configurable per-broker capacity.
func batchedWorld(t *testing.T, opts Options, capacity float64) (*Runtime, map[string]*broker.Local, *obs.AdmitMetrics) {
	t.Helper()
	clock := &ManualClock{}
	admit := obs.NewAdmitMetrics(obs.New())
	opts.Admission = admit
	rt := NewRuntime(clock, opts)
	brokers := map[string]*broker.Local{}
	for _, h := range []topo.HostID{"X", "Y"} {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(resource string, host topo.HostID) {
		b, err := broker.NewLocal(resource, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(host, b); err != nil {
			t.Fatal(err)
		}
		brokers[resource] = b
	}
	mk("cpu@X", "X")
	mk("cpu@Y", "Y")
	mk("net:X->Y", "Y")
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, brokers, admit
}

// TestBatchedEstablishAndRelease pins that the batching front end is a
// drop-in for the serialized commit path: a single session establishes
// through a one-member round, holds on both hosts, and releases fully.
func TestBatchedEstablishAndRelease(t *testing.T) {
	rt, brokers, admit := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: 8}}, 100)
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.EndToEnd.Name != "best" {
		t.Fatalf("end-to-end = %s", s.Plan.EndToEnd.Name)
	}
	if got := brokers["cpu@X"].Available(); got >= 100 {
		t.Fatalf("cpu@X untouched: %v", got)
	}
	if got := brokers["cpu@Y"].Available(); got >= 100 {
		t.Fatalf("cpu@Y untouched: %v", got)
	}
	if got := admit.Batches.Value(); got != 1 {
		t.Fatalf("Batches = %v, want 1", got)
	}
	if got := admit.BatchMembers.Value(); got != 1 {
		t.Fatalf("BatchMembers = %v, want 1", got)
	}
	if got := admit.Coalesced.Value(); got != 0 {
		t.Fatalf("Coalesced = %v for a lone member, want 0", got)
	}
	if got := admit.StripeLocks.Value(); got == 0 {
		t.Fatal("StripeLocks untouched by a batched round")
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Available() != 100 {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
	}
}

// TestBatchedCoalescesConcurrentAdmissions pins the whole point of the
// front end: commits arriving inside one collection window share a
// round instead of each paying its own 2PC fan-out.
func TestBatchedCoalescesConcurrentAdmissions(t *testing.T) {
	const n = 8
	// Generous capacity: every session fits, so refusals cannot hide a
	// failure to coalesce.
	rt, brokers, admit := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: n, Window: 100 * time.Millisecond}}, 1e6)
	service, binding := pipelineService(t)
	var wg sync.WaitGroup
	errs := make([]error, n)
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := admit.BatchMembers.Value(); got != n {
		t.Fatalf("BatchMembers = %v, want %d", got, n)
	}
	if got := admit.Batches.Value(); got >= n {
		t.Fatalf("Batches = %v for %d members inside one window: nothing coalesced", got, n)
	}
	if got := admit.Coalesced.Value(); got == 0 {
		t.Fatal("Coalesced = 0: no member shared a round")
	}
	for _, s := range sessions {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for r, b := range brokers {
		if b.Available() != 1e6 {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", r, b.Reservations())
		}
	}
}

// TestBatchedRefusedMemberLeavesNoResidue drives more demand than the
// books hold through the batched path: refused members must leave zero
// residual holds anywhere, and admitted members must hold exactly their
// plans — per-member all-or-nothing inside shared rounds.
func TestBatchedRefusedMemberLeavesNoResidue(t *testing.T) {
	const n = 16
	rt, brokers, _ := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: n, Window: 20 * time.Millisecond}}, 100)
	service, binding := pipelineService(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sessions []*Session
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
			if err != nil {
				return
			}
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(sessions) == 0 {
		t.Fatal("no session admitted at all")
	}
	// Admitted sessions hold exactly the sum of their plans; nothing
	// else is on the books.
	want := map[string]float64{}
	for _, s := range sessions {
		for r, amt := range s.Plan.Requirement() {
			want[r] += amt
		}
	}
	for r, b := range brokers {
		if got := b.Reserved(); got != want[r] {
			t.Errorf("%s reserved %v, want %v (refused members left residue?)", r, got, want[r])
		}
		if b.Available() < 0 {
			t.Errorf("%s overbooked: %v", r, b.Available())
		}
	}
	for _, s := range sessions {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for r, b := range brokers {
		if b.Available() != 100 {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", r, b.Reservations())
		}
	}
}

// TestBatchedRuntimeRestart pins that the collector belongs to the
// Start..Stop cycle: a restarted runtime batches again.
func TestBatchedRuntimeRestart(t *testing.T) {
	rt, _, admit := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: 4}}, 1e6)
	service, binding := pipelineService(t)
	spec := SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}
	s, err := rt.Establish("X", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	if rt.batchFrontEnd() != nil {
		t.Fatal("stopped runtime still exposes a batch front end")
	}
	rt.Start()
	s, err = rt.Establish("X", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if got := admit.Batches.Value(); got != 2 {
		t.Fatalf("Batches = %v across restart, want 2", got)
	}
}

// TestBatchedTraceHasBatchCommitSpan pins the trace contract of the
// batched path: every member keeps its own trace, with a batch_commit
// child under its reserve stage carrying the round-size event, and the
// batched 2PC messages parent under the leader's batch span.
func TestBatchedTraceHasBatchCommitSpan(t *testing.T) {
	clock := &ManualClock{}
	rec := obs.NewTraceRecorder(nil, obs.TraceOptions{Sample: 1})
	rt := NewRuntime(clock, Options{Batch: BatchPolicy{MaxBatch: 4}, Tracing: rec})
	for _, h := range []topo.HostID{"X", "Y"} {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for res, host := range map[string]topo.HostID{"cpu@X": "X", "cpu@Y": "Y", "net:X->Y": "Y"} {
		b, err := broker.NewLocal(res, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(host, b); err != nil {
			t.Fatal(err)
		}
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}

	done := waitTraces(t, rec, 1)
	var admission obs.CompletedTrace
	for _, tr := range done {
		for _, sp := range tr.Spans {
			if sp.Name == obs.StageBatchCommit {
				admission = tr
			}
		}
	}
	batch := spansNamed(admission.Spans, obs.StageBatchCommit, "X")
	if len(batch) != 1 {
		t.Fatalf("want 1 batch_commit span, got %d", len(batch))
	}
	reserve := spansNamed(admission.Spans, obs.StageReserve, "X")
	if len(reserve) != 1 || batch[0].Parent != reserve[0].Span {
		t.Fatal("batch_commit span is not a child of the reserve stage span")
	}
	found := false
	for _, ev := range batch[0].Events {
		if ev.Type == obs.EventBatchRound {
			found = true
		}
	}
	if !found {
		t.Fatal("batch_commit span carries no batch_round event")
	}
	// The batched prepare/commit messages parent under the batch span.
	preps := spansNamed(admission.Spans, msgBatchPrepare, "X->Y")
	if len(preps) == 0 {
		t.Fatal("no batch_prepare call span under the admission trace")
	}
}

// TestGroupCommitContentionStress is the group-commit correctness
// harness (run under -race): many goroutines push overlapping plans
// through the batching front end at once. Every member must be
// all-or-nothing, refused members must leave no residue, and the final
// books must be exactly what serially admitting the same winning plans
// onto fresh books produces — hold for hold.
func TestGroupCommitContentionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("contention stress skipped in -short")
	}
	const (
		goroutines = 24
		perG       = 20
		capacity   = 400
	)
	rt, brokers, admit := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: 16}}, capacity)
	service, binding := pipelineService(t)
	spec := SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}

	var mu sync.Mutex
	var kept []*Session
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s, err := rt.Establish("X", spec)
				if err != nil {
					continue
				}
				// Keep a slice of the winners to stress refusals against
				// standing load; release the rest immediately for churn.
				if (g+i)%3 == 0 {
					mu.Lock()
					kept = append(kept, s)
					mu.Unlock()
					continue
				}
				if err := s.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := admit.BatchMembers.Value(); got == 0 {
		t.Fatal("stress never exercised the batched path")
	}

	// Replay the surviving sessions' plans serially onto fresh books:
	// the concurrent batched books must match hold for hold.
	replay := map[string]*broker.Local{}
	for r := range brokers {
		b, err := broker.NewLocal(r, capacity)
		if err != nil {
			t.Fatal(err)
		}
		replay[r] = b
	}
	resolve := func(r string) (broker.Broker, bool) {
		b, ok := replay[r]
		return b, ok
	}
	for _, s := range kept {
		if _, err := broker.ReserveAtomic(0, resolve, s.Plan.Requirement()); err != nil {
			t.Fatalf("serial replay refused a concurrently admitted plan: %v", err)
		}
	}
	for r, b := range brokers {
		got, want := b.HoldAmounts(), replay[r].HoldAmounts()
		if len(got) != len(want) {
			t.Fatalf("%s: %d holds, serial replay has %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: hold multiset diverged from serial replay: %v vs %v", r, got, want)
			}
		}
		if b.Available() < 0 {
			t.Fatalf("%s overbooked: %v", r, b.Available())
		}
	}

	for _, s := range kept {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for r, b := range brokers {
		if b.Available() != capacity {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", r, b.Reservations())
		}
	}
}

// TestBatchedCommitRespectsMemberDeadline pins that one member's
// already-expired context fails that member fast without failing the
// round's other members.
func TestBatchedCommitRespectsMemberDeadline(t *testing.T) {
	rt, brokers, _ := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: 4}}, 1e6)
	fe := rt.batchFrontEnd()
	if fe == nil {
		t.Fatal("no batch front end")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fe.commit(ctx, "X", qos.ResourceVector{"cpu@X": 1}); err == nil {
		t.Fatal("expired member admitted")
	}
	if got := brokers["cpu@X"].Reserved(); got != 0 {
		t.Fatalf("expired member left %v reserved", got)
	}
	// A live member is unaffected.
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	res, err := fe.commit(live, "X", qos.ResourceVector{"cpu@X": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Release(0); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPrepareIdempotent pins the participant contract: a
// duplicated batch-prepare replays recorded outcomes instead of
// reserving twice, and a batch-abort of unknown IDs tombstones them.
func TestBatchPrepareIdempotent(t *testing.T) {
	rt, brokers, _ := batchedWorld(t, Options{Batch: BatchPolicy{MaxBatch: 4}}, 100)
	p, err := rt.proxyFor("cpu@X")
	if err != nil {
		t.Fatal(err)
	}
	fabric := rt.Transport()
	req := batchPrepareRequest{members: []batchMemberShare{
		{id: "m-1", req: qos.ResourceVector{"cpu@X": 10}},
		{id: "m-2", req: qos.ResourceVector{"cpu@X": 95}},
	}}
	call := func(payload interface{}) interface{} {
		t.Helper()
		resp, err := fabric.Call(context.Background(), "Y", "X", msgBatchPrepare, payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	rep := call(req).(batchPrepareReply)
	if rep.results[0].err != nil {
		t.Fatalf("member 1 refused: %v", rep.results[0].err)
	}
	if !errors.Is(rep.results[1].err, broker.ErrInsufficient) {
		t.Fatalf("member 2 err = %v, want ErrInsufficient", rep.results[1].err)
	}
	if got := brokers["cpu@X"].Reserved(); got != 10 {
		t.Fatalf("reserved %v after round, want 10", got)
	}
	// The duplicate replays — no double booking, same per-member split.
	rep = call(req).(batchPrepareReply)
	if rep.results[0].err != nil || !errors.Is(rep.results[1].err, broker.ErrInsufficient) {
		t.Fatalf("replayed outcomes diverged: %+v", rep.results)
	}
	if got := brokers["cpu@X"].Reserved(); got != 10 {
		t.Fatalf("duplicate batch-prepare moved the books: reserved %v", got)
	}
	// Abort everything (m-3 never prepared: tombstoned).
	if _, err := fabric.Call(context.Background(), "Y", "X", msgBatchAbort, batchAbortRequest{ids: []string{"m-1", "m-2", "m-3"}}); err != nil {
		t.Fatal(err)
	}
	if got := brokers["cpu@X"].Reserved(); got != 0 {
		t.Fatalf("abort left %v reserved", got)
	}
	// The tombstone refuses a delayed prepare for m-3.
	rep = call(batchPrepareRequest{members: []batchMemberShare{{id: "m-3", req: qos.ResourceVector{"cpu@X": 5}}}}).(batchPrepareReply)
	if rep.results[0].err == nil {
		t.Fatal("post-abort straggler prepare accepted")
	}
	if p.pending["m-3"] == nil || !p.pending["m-3"].aborted {
		t.Fatal("m-3 not tombstoned")
	}
}
