package proxy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/topo"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// durableWorld is twoHostWorld plus a write-ahead log in dir; the
// runtime is NOT started so tests can Recover first.
func durableWorld(t *testing.T, dir string, opts Options) (*Runtime, *ManualClock, map[string]*broker.Local) {
	t.Helper()
	clock := &ManualClock{}
	log, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.WAL = log
	rt := NewRuntime(clock, opts)
	brokers := map[string]*broker.Local{}
	for _, h := range []topo.HostID{"X", "Y"} {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		resource string
		host     topo.HostID
	}{{"cpu@X", "X"}, {"cpu@Y", "Y"}, {"net:X->Y", "Y"}} {
		b, err := broker.NewLocal(r.resource, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(r.host, b); err != nil {
			t.Fatal(err)
		}
		brokers[r.resource] = b
	}
	t.Cleanup(func() {
		rt.Stop()
		rt.CloseWAL()
	})
	return rt, clock, brokers
}

func establishDurable(t *testing.T, rt *Runtime) *Session {
	t.Helper()
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bookState snapshots every broker's externally observable book: hold
// amounts (sorted) and total reserved.
func bookState(brokers map[string]*broker.Local) map[string][]float64 {
	out := make(map[string][]float64)
	for r, b := range brokers {
		amounts := b.HoldAmounts()
		sort.Float64s(amounts)
		out[r] = append(amounts, b.Reserved())
	}
	return out
}

// TestCrashRestartConvergesToPreCrashBooks is the tentpole acceptance:
// a host killed after commit and recovered from the WAL converges to
// book state identical to the pre-crash books; surviving sessions keep
// heartbeating and release cleanly, leaking and resurrecting nothing.
func TestCrashRestartConvergesToPreCrashBooks(t *testing.T) {
	rt, clock, brokers := durableWorld(t, t.TempDir(), Options{LeaseTTL: 50})
	rt.Start()
	s1 := establishDurable(t, rt)
	s2 := establishDurable(t, rt)
	if err := s2.Release(); err != nil {
		t.Fatal(err)
	}
	before := bookState(brokers)

	for _, h := range []topo.HostID{"X", "Y"} {
		if err := rt.CrashRestart(h); err != nil {
			t.Fatalf("CrashRestart(%s): %v", h, err)
		}
	}
	if got := bookState(brokers); !reflect.DeepEqual(got, before) {
		t.Fatalf("books diverged after crash/restart:\n got %v\nwant %v", got, before)
	}

	// The surviving session's handle still works against the recovered
	// book: heartbeats renew the exact restored holds.
	clock.Advance(10)
	if err := s1.Heartbeat(); err != nil {
		t.Fatalf("heartbeat after restart: %v", err)
	}
	// New admissions land on the recovered books without ID collisions.
	s3 := establishDurable(t, rt)
	if err := s3.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 || b.Reserved() != 0 {
			t.Errorf("%s leaked: %d holds, %g reserved", r, b.Reservations(), b.Reserved())
		}
	}
}

// TestRecoverColdStart is the lease-across-downtime regression: a fresh
// process recovering the WAL rebuilds exactly the committed pre-crash
// shape, sweeps leases that lapsed while down exactly once before any
// admission, and the recovered book drains to empty — no resurrected
// and no double-released holds.
func TestRecoverColdStart(t *testing.T) {
	dir := t.TempDir()

	// First process: two sessions; s1 heartbeats (lease to t=15), s2
	// does not (lease dies at t=10); crash at t=6.
	rt1, c1, _ := durableWorld(t, dir, Options{LeaseTTL: 10})
	rt1.Start()
	s1 := establishDurable(t, rt1)
	s2 := establishDurable(t, rt1)
	c1.Set(5)
	if err := s1.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64)
	holds := make(map[string]int)
	for _, ex := range s1.HoldExports() {
		want[ex.Resource] += ex.Amount
		holds[ex.Resource]++
	}
	if len(want) == 0 {
		t.Fatal("s1 exported no holds")
	}
	_ = s2
	rt1.Stop()
	if err := rt1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Second process, t=12: s2's lease lapsed during downtime.
	reg := obs.New()
	rt2, c2, brokers2 := durableWorld(t, dir, Options{LeaseTTL: 10, WALMetrics: obs.NewWALMetrics(reg)})
	c2.Set(12)
	if err := rt2.Recover(c2.Now()); err != nil {
		t.Fatal(err)
	}
	rt2.Start()

	for r, b := range brokers2 {
		if got := b.Reserved(); got != want[r] {
			t.Errorf("%s reserved %g after recovery, want %g (s1 only)", r, got, want[r])
		}
		if got := b.Reservations(); got != holds[r] {
			t.Errorf("%s has %d holds, want %d", r, got, holds[r])
		}
	}
	swept := reg.Counter(obs.MetricRecoveryLeasesSwept, "").Value()
	if swept == 0 {
		t.Error("lapsed leases not counted as swept")
	}

	// The sweep ran exactly once: nothing further lapses before s1's
	// lease expiry, and s2's holds do not come back.
	for _, b := range brokers2 {
		if n := b.ExpireLeases(14); n != 0 {
			t.Errorf("%s swept %d extra holds", b.Resource(), n)
		}
	}
	// Drain: s1's restored lease expires on schedule, emptying every
	// book — the recovered state drains to the pre-crash committed
	// shape with no resurrected or double-released holds.
	for _, b := range brokers2 {
		b.ExpireLeases(30)
	}
	for r, b := range brokers2 {
		if b.Reservations() != 0 || b.Reserved() != 0 {
			t.Errorf("%s did not drain: %d holds, %g reserved", r, b.Reservations(), b.Reserved())
		}
	}
}

// TestRecoverAfterCheckpoint proves checkpoint compaction preserves the
// recovered shape: snapshot segments replay like the history they
// replaced.
func TestRecoverAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	rt1, _, brokers1 := durableWorld(t, dir, Options{LeaseTTL: 50})
	rt1.Start()
	s1 := establishDurable(t, rt1)
	s2 := establishDurable(t, rt1)
	if err := s2.Release(); err != nil {
		t.Fatal(err)
	}
	_ = s1
	before := bookState(brokers1)
	rt1.Stop()
	if err := rt1.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if err := rt1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rt2, _, brokers2 := durableWorld(t, dir, Options{LeaseTTL: 50})
	if err := rt2.Recover(0); err != nil {
		t.Fatal(err)
	}
	if got := bookState(brokers2); !reflect.DeepEqual(got, before) {
		t.Fatalf("post-checkpoint recovery differs:\n got %v\nwant %v", got, before)
	}
}

// prepareOn plants a raw prepare on host Y over the fabric, simulating
// a coordinator that died before deciding.
func prepareOn(t *testing.T, rt *Runtime, id string, amount float64, expiry broker.Time) {
	t.Helper()
	req := prepareRequest{id: id, expiry: expiry, req: qos.ResourceVector{"cpu@Y": amount}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := rt.Transport().Call(ctx, "test", transport.Addr("Y"), msgPrepare, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep := resp.(prepareReply); rep.err != nil {
		t.Fatal(rep.err)
	}
}

func commitOn(t *testing.T, rt *Runtime, id string, expiry broker.Time) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := rt.Transport().Call(ctx, "test", transport.Addr("Y"), msgCommit, commitRequest{id: id, expiry: expiry})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(commitReply).err
}

// TestCrashBetweenPrepareAndCommit pins the in-doubt reconciliation
// protocol: a participant crashing between prepare and commit recovers
// the prepare from the WAL and resolves it against the coordinator's
// outcome table — abort (released, presumed abort) when no decision was
// journaled, commit (lease re-armed) when one was. Duplicate commits
// after recovery still answer idempotently, and gcPending never evicts
// an entry WAL replay re-created while it is unresolved.
func TestCrashBetweenPrepareAndCommit(t *testing.T) {
	rt, clock, brokers := durableWorld(t, t.TempDir(), Options{LeaseTTL: 50})
	rt.Start()
	expiry := clock.Now() + 50

	// Undecided: coordinator X journaled no decide record.
	prepareOn(t, rt, "X#100", 7, expiry)
	// Decided: the decide record hit the log before the crash.
	prepareOn(t, rt, "X#101", 11, expiry)
	rt.recordDecide("X", "X#101", expiry)
	// Unresolvable: coordinator host Z does not exist; the prepare must
	// stay pending (and leased) rather than leak or be evicted.
	prepareOn(t, rt, "Z#102", 3, expiry)

	if err := rt.CrashRestart("Y"); err != nil {
		t.Fatal(err)
	}

	// Presumed abort released the undecided holds; the decided ones
	// survived with their lease; the unresolved ones survive too, kept
	// reclaimable by their restored lease.
	if got := brokers["cpu@Y"].Reserved(); got != 11+3 {
		t.Fatalf("cpu@Y reserved %g after recovery, want 14", got)
	}

	// Duplicate commit replay: the decided prepare answers idempotently,
	// the aborted one refuses.
	if err := commitOn(t, rt, "X#101", expiry); err != nil {
		t.Fatalf("duplicate commit of decided prepare: %v", err)
	}
	if err := commitOn(t, rt, "X#100", expiry); err == nil {
		t.Fatal("commit of presumed-aborted prepare succeeded")
	}

	// gcPending pressure: churn far past the GC bound with resolved
	// tombstones; the unresolved replayed entry must survive.
	fabric := rt.Transport()
	for i := 0; i < 3*maxPendingResolved; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := fabric.Call(ctx, "test", transport.Addr("Y"), msgAbort, abortRequest{id: fmt.Sprintf("X#gc%d", i)}); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	rt.Stop()
	p, err := rt.proxyFor("cpu@Y")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := p.pending["Z#102"]
	if !ok {
		t.Fatal("gcPending evicted the unresolved replayed prepare")
	}
	if st.resolved() {
		t.Fatal("unreachable coordinator's prepare was resolved")
	}
	// And it still cannot leak: the restored lease reclaims it.
	if n := brokers["cpu@Y"].ExpireLeases(expiry + 1); n == 0 {
		t.Fatal("unresolved prepare not reclaimable by lease sweep")
	}
}

// TestRenegotiateCrashRecovery pins renegotiation against the WAL: a
// crash between delta-prepare and commit reconciles the session to
// exactly one of its two levels with the books matching that level.
// The undecided half (coordinator died before journaling a decision)
// lands on the OLD level by presumed abort; a decided upgrade and a
// journaled downgrade shrink both replay to exactly the NEW level.
func TestRenegotiateCrashRecovery(t *testing.T) {
	rt, clock, brokers := durableWorld(t, t.TempDir(), Options{LeaseTTL: 50})
	rt.Start()
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.AtLevel{Level: "ok"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CurrentPlan().EndToEnd.Name; got != "ok" {
		t.Fatalf("established at %s, want ok", got)
	}
	ctx := context.Background()
	auditAndHeartbeat := func(when, level string) {
		t.Helper()
		if got := s.CurrentPlan().EndToEnd.Name; got != level {
			t.Fatalf("%s: session at level %s, want %s", when, got, level)
		}
		for _, msg := range rt.AuditSessions(1e-9) {
			t.Errorf("%s: audit: %s", when, msg)
		}
		if err := s.Heartbeat(); err != nil {
			t.Fatalf("%s: heartbeat: %v", when, err)
		}
	}

	// Crash between delta-prepare and commit: the upgrade's delta was
	// prepared on Y but the coordinator journaled no decision. Recovery
	// resolves it by presumed abort — the session reconciles to exactly
	// the old level, the prepared delta vanishes from the books.
	before := bookState(brokers)
	prepareOn(t, rt, "X#900", 12, clock.Now()+50)
	if err := rt.CrashRestart("Y"); err != nil {
		t.Fatal(err)
	}
	if got := bookState(brokers); !reflect.DeepEqual(got, before) {
		t.Fatalf("in-doubt delta survived recovery:\n got %v\nwant %v", got, before)
	}
	auditAndHeartbeat("after in-doubt crash", "ok")

	// Decided upgrade: the delta committed (and was journaled) before
	// the crash, so recovery replays the session at exactly the new
	// level on every host.
	if err := rt.Renegotiate(ctx, s, "best"); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	upgraded := bookState(brokers)
	for _, h := range []topo.HostID{"X", "Y"} {
		if err := rt.CrashRestart(h); err != nil {
			t.Fatalf("CrashRestart(%s): %v", h, err)
		}
	}
	if got := bookState(brokers); !reflect.DeepEqual(got, upgraded) {
		t.Fatalf("committed upgrade diverged after recovery:\n got %v\nwant %v", got, upgraded)
	}
	auditAndHeartbeat("after committed-upgrade crash", "best")

	// Downgrade: the shrink is journaled too — the shrunk shape, not the
	// pre-downgrade holds, is what replays.
	if err := rt.Renegotiate(ctx, s, "ok"); err != nil {
		t.Fatalf("downgrade: %v", err)
	}
	shrunk := bookState(brokers)
	for _, h := range []topo.HostID{"X", "Y"} {
		if err := rt.CrashRestart(h); err != nil {
			t.Fatalf("CrashRestart(%s): %v", h, err)
		}
	}
	if got := bookState(brokers); !reflect.DeepEqual(got, shrunk) {
		t.Fatalf("journaled downgrade diverged after recovery:\n got %v\nwant %v", got, shrunk)
	}
	auditAndHeartbeat("after downgrade crash", "ok")

	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 || b.Reserved() != 0 {
			t.Errorf("%s leaked: %d holds, %g reserved", r, b.Reservations(), b.Reserved())
		}
	}
}

// TestWALDisabledPaths pins the guard rails of the durability surface.
func TestWALDisabledPaths(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	if err := rt.Recover(0); err == nil {
		t.Error("Recover without WAL succeeded")
	}
	if err := rt.CrashRestart("X"); err == nil {
		t.Error("CrashRestart without WAL succeeded")
	}
	if err := rt.CloseWAL(); err != nil {
		t.Error(err)
	}
}

// TestUndurableDecisionIsNotAcknowledged is the regression test for
// swallowed append errors: with the log failing (closed under a started
// runtime, as a full disk would), no admission may be acknowledged — a
// prepare that cannot be journaled is refused and released, a commit
// decision that cannot be journaled aborts everywhere — and nothing may
// be counted as appended.
func TestUndurableDecisionIsNotAcknowledged(t *testing.T) {
	for name, batch := range map[string]BatchPolicy{"serialized": {}, "batched": {MaxBatch: 4}} {
		t.Run(name, func(t *testing.T) {
			reg := obs.New()
			rt, _, brokers := durableWorld(t, t.TempDir(), Options{
				LeaseTTL: 50, Batch: batch, WALMetrics: obs.NewWALMetrics(reg),
			})
			rt.Start()
			establishDurable(t, rt)
			before := bookState(brokers)
			appends := reg.Counter(obs.MetricWALAppends, "").Value()
			if appends == 0 {
				t.Fatal("the healthy admission journaled nothing")
			}

			if err := rt.wal.Close(); err != nil {
				t.Fatal(err)
			}
			service, binding := pipelineService(t)
			s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
			if err == nil {
				t.Fatalf("establish acknowledged session %v with the log closed", s.Plan.PathLevels)
			}
			if errors.Is(err, broker.ErrInsufficient) {
				t.Errorf("err = %v: a journal failure must be terminal, not a retryable refusal", err)
			}
			if got := bookState(brokers); !reflect.DeepEqual(got, before) {
				t.Errorf("books moved under the failed admission:\n got %v\nwant %v", got, before)
			}
			if got := reg.Counter(obs.MetricWALAppends, "").Value(); got != appends {
				t.Errorf("%s moved from %v to %v with the log closed", obs.MetricWALAppends, appends, got)
			}
			if live := rt.LiveSessions(); live != 1 {
				t.Errorf("%d live sessions, want the one admitted before the log failed", live)
			}

			// The coordinator half on its own: a decision that could not be
			// journaled is forgotten, so a recovering participant asking
			// for its outcome is told to abort.
			if err := rt.recordDecide("X", "X#undurable", 0); err == nil {
				t.Error("recordDecide succeeded on a closed log")
			}
			if rt.lookupOutcome("X#undurable").commit {
				t.Error("an undurable decision stayed in the decide table")
			}
		})
	}
}

// TestFailedDecideAbortsEverywhere drives the coordinator's half end to
// end: both participants prepare and journal successfully, then the log
// fails before the commit decision can be journaled. The admission must
// fail, the prepared holds must be aborted on both hosts, and no decide
// record may exist for recovery to find.
func TestFailedDecideAbortsEverywhere(t *testing.T) {
	for name, batch := range map[string]BatchPolicy{"serialized": {}, "batched": {MaxBatch: 4}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rt, _, brokers := durableWorld(t, dir, Options{LeaseTTL: 50, Batch: batch})
			rt.Start()
			before := bookState(brokers)

			// Intercept prepares on the delivering goroutine: handle each
			// as the serve loop would, and close the log once both hosts
			// have journaled theirs — before either reply reaches the
			// coordinator.
			var prepared atomic.Int32
			intercept := func(p *QoSProxy, prepare func(transport.Delivery) (interface{}, error)) func(transport.Delivery) bool {
				return func(d transport.Delivery) bool {
					rep, err := prepare(d)
					if err != nil {
						t.Errorf("prepare on %s: %v", p.host, err)
					}
					if prepared.Add(1) == 2 {
						if err := rt.wal.Close(); err != nil {
							t.Error(err)
						}
					}
					d.Reply(rep)
					return true
				}
			}
			for _, h := range []topo.HostID{"X", "Y"} {
				p := rt.proxies[h]
				p.ep.SetHandler(msgPrepare, intercept(p, func(d transport.Delivery) (interface{}, error) {
					rep := p.handlePrepare(d.Payload.(prepareRequest))
					return rep, rep.err
				}))
				p.ep.SetHandler(msgBatchPrepare, intercept(p, func(d transport.Delivery) (interface{}, error) {
					rep := p.handleBatchPrepare(d.Payload.(batchPrepareRequest))
					return rep, rep.results[0].err
				}))
			}

			service, binding := pipelineService(t)
			if _, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}); err == nil {
				t.Fatal("establish acknowledged a session whose commit decision was never journaled")
			} else if errors.Is(err, broker.ErrInsufficient) {
				t.Errorf("err = %v: a journal failure must be terminal, not a retryable refusal", err)
			}
			if n := prepared.Load(); n != 2 {
				t.Fatalf("%d prepares handled, want one per host and no retry", n)
			}
			if got := bookState(brokers); !reflect.DeepEqual(got, before) {
				t.Errorf("prepared holds survived the failed decision:\n got %v\nwant %v", got, before)
			}
			records, torn, err := wal.Replay(dir)
			if err != nil || torn {
				t.Fatalf("replay: torn=%v err=%v", torn, err)
			}
			for _, rec := range records {
				if rec.Type == wal.TypeDecide {
					t.Errorf("decide record %s is in the log", rec.ID)
				}
			}
		})
	}
}
