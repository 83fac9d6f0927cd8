package proxy

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qosres/internal/core"
)

// repairsOf returns how many fault-driven re-admissions the session has
// survived.
func repairsOf(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairs
}

func establishPipe(t *testing.T, rt *Runtime, planner core.Planner) *Session {
	t.Helper()
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRepairAtSameLevel(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})
	if s.Plan.EndToEnd.Name != "best" {
		t.Fatalf("initial level = %s", s.Plan.EndToEnd.Name)
	}

	// Shrink cpu@Y but leave room for "best": the repair re-admits at
	// the original level.
	if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 60); err != nil {
		t.Fatal(err)
	}
	rep := rt.RepairAffectedContext(context.Background(), []string{"cpu@Y"})
	if rep.Affected != 1 || rep.Repaired != 1 {
		t.Fatalf("report = %+v, want 1 affected, 1 repaired", rep)
	}
	if got := s.CurrentPlan().EndToEnd.Name; got != "best" {
		t.Fatalf("post-repair level = %s, want best", got)
	}
	if s.State() != StateActive {
		t.Fatalf("state = %s, want active", s.State())
	}
	if repairsOf(s) != 1 {
		t.Fatalf("repairs = %d", repairsOf(s))
	}
	// The initially admitted plan is preserved verbatim.
	if s.Plan.EndToEnd.Name != "best" {
		t.Fatalf("initial plan mutated: %s", s.Plan.EndToEnd.Name)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations after release", r, b.Reservations())
		}
	}
}

func TestRepairDegradesWhenTargetInfeasible(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})

	// cpu@Y down to 15: "best" needs 20 (via in-hi) or 35 (via in-lo),
	// "ok" needs 8. Only the downgrade fits.
	if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 15); err != nil {
		t.Fatal(err)
	}
	rep := rt.RepairAffectedContext(context.Background(), []string{"cpu@Y"})
	if rep.Affected != 1 || rep.Degraded != 1 {
		t.Fatalf("report = %+v, want 1 affected, 1 degraded", rep)
	}
	if got := s.CurrentPlan().EndToEnd.Name; got != "ok" {
		t.Fatalf("post-repair level = %s, want ok", got)
	}
	if s.State() != StateActive {
		t.Fatalf("state = %s", s.State())
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairTerminatesWhenNothingFeasible(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})

	// Every level of the service needs the network; with it down even
	// the tradeoff downgrade has no feasible plan.
	brokers["net:X->Y"].Fail(clock.Now())
	rep := rt.RepairAffectedContext(context.Background(), []string{"net:X->Y"})
	if rep.Affected != 1 || rep.Failed != 1 {
		t.Fatalf("report = %+v, want 1 affected, 1 failed", rep)
	}
	if s.State() != StateFailed {
		t.Fatalf("state = %s, want failed", s.State())
	}
	if rt.LiveSessions() != 0 {
		t.Fatalf("live sessions = %d", rt.LiveSessions())
	}
	// The holds were fully drained despite the terminated session:
	// nothing leaks on healthy or failed brokers.
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations after failed repair", r, b.Reservations())
		}
	}
	// Releasing a failed session is a benign no-op.
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairIgnoresUntouchedSessions(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})
	rep := rt.RepairAffectedContext(context.Background(), []string{"link:L99"})
	if rep.Affected != 0 {
		t.Fatalf("report = %+v, want no affected sessions", rep)
	}
	if repairsOf(s) != 0 || s.State() != StateActive {
		t.Fatalf("untouched session changed: %d repairs, state %s", repairsOf(s), s.State())
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRacingRepair is the double-release regression test: an
// owner Release racing a failure-driven repair of the same session must
// release the session's holds exactly once — whichever the interleaving,
// the final state is fully drained brokers and no error from either
// path. Before teardown was funneled through one lock-held path, the
// repair could release the reservation the owner was concurrently
// releasing (double release) or re-admit a session the owner had just
// released (leaked holds).
func TestReleaseRacingRepair(t *testing.T) {
	rounds := 50
	if raceEnabled {
		rounds = 200
	}
	rt, clock, brokers := twoHostWorld(t, Options{})
	for round := 0; round < rounds; round++ {
		s := establishPipe(t, rt, core.Basic{})
		if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 60); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		var relErr error
		go func() {
			defer wg.Done()
			relErr = s.Release()
		}()
		go func() {
			defer wg.Done()
			rt.RepairAffectedContext(context.Background(), []string{"cpu@Y"})
		}()
		wg.Wait()

		if relErr != nil {
			t.Fatalf("round %d: release errored: %v", round, relErr)
		}
		// The repair may have won and re-admitted before the release;
		// the release then tore down the repaired reservation. Either
		// way the session must end released with nothing held.
		if err := s.Release(); err != nil {
			t.Fatalf("round %d: second release: %v", round, err)
		}
		if s.State() != StateReleased {
			t.Fatalf("round %d: state = %s", round, s.State())
		}
		if rt.LiveSessions() != 0 {
			t.Fatalf("round %d: live sessions = %d", round, rt.LiveSessions())
		}
		for r, b := range brokers {
			if b.Reservations() != 0 {
				t.Fatalf("round %d: %s holds %d reservations", round, r, b.Reservations())
			}
		}
		if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 100); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{LeaseTTL: 5})
	s := establishPipe(t, rt, core.Basic{})

	sweep := func() int {
		n := 0
		for _, b := range brokers {
			n += b.ExpireLeases(clock.Now())
		}
		return n
	}

	clock.Advance(4)
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	// The heartbeat pushed expiry to t=9; a sweep at t=6 (past the
	// original t=5 expiry) reclaims nothing.
	clock.Advance(2)
	if n := sweep(); n != 0 {
		t.Fatalf("sweep reclaimed %d renewed holds", n)
	}
	if s.State() != StateActive {
		t.Fatalf("state = %s", s.State())
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations", r, b.Reservations())
		}
	}
}

// TestHeartbeatRacingDowngradeRenewsCurrentHolds is the adaptation-era
// lease regression: a Heartbeat racing a concurrent renegotiation (or
// repair) must renew whatever holds the session has at that instant —
// never a stale pre-downgrade set. Before renegotiation ran under the
// session lock, a heartbeat could lease holds the downgrade was
// concurrently releasing, leaving the post-downgrade reservation
// unleased and reclaimable mid-session. CI runs this under -race.
func TestHeartbeatRacingDowngradeRenewsCurrentHolds(t *testing.T) {
	rounds := 25
	if raceEnabled {
		rounds = 100
	}
	rt, clock, brokers := twoHostWorld(t, Options{LeaseTTL: 5})
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		s := establishPipe(t, rt, core.Basic{})

		var wg sync.WaitGroup
		wg.Add(2)
		errs := make(chan error, 16)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := s.Heartbeat(); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := rt.Renegotiate(ctx, s, "ok"); err != nil {
				errs <- err
				return
			}
			if err := rt.Renegotiate(ctx, s, "best"); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}

		// One more heartbeat against the settled session, then advance to
		// just inside the renewed TTL: a sweep must reclaim nothing — the
		// heartbeats leased the session's CURRENT holds, whichever
		// renegotiation they interleaved with.
		if err := s.Heartbeat(); err != nil {
			t.Fatalf("round %d: post-race heartbeat: %v", round, err)
		}
		clock.Advance(4)
		for _, b := range brokers {
			if n := b.ExpireLeases(clock.Now()); n != 0 {
				t.Fatalf("round %d: sweep reclaimed %d holds inside the renewed TTL", round, n)
			}
		}
		if s.State() != StateActive {
			t.Fatalf("round %d: state = %s", round, s.State())
		}
		for _, msg := range rt.AuditSessions(1e-9) {
			t.Fatalf("round %d: audit: %s", round, msg)
		}
		if err := s.Release(); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
		for r, b := range brokers {
			if b.Reservations() != 0 {
				t.Fatalf("round %d: %s holds %d reservations", round, r, b.Reservations())
			}
		}
	}
}

func TestLeaseExpiryTerminatesSilentSession(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{LeaseTTL: 5})
	s := establishPipe(t, rt, core.Basic{})

	// The session goes silent: no heartbeat past the TTL. The sweep
	// reclaims every leased hold.
	clock.Advance(6)
	reclaimed := 0
	for _, b := range brokers {
		reclaimed += b.ExpireLeases(clock.Now())
	}
	if reclaimed == 0 {
		t.Fatal("sweep reclaimed nothing")
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s still holds %d reservations", r, b.Reservations())
		}
	}
	// A late heartbeat discovers the loss.
	if err := s.Heartbeat(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("late heartbeat: %v, want ErrSessionLost", err)
	}
	if s.State() != StateFailed {
		t.Fatalf("state = %s, want failed", s.State())
	}
	if rt.LiveSessions() != 0 {
		t.Fatalf("live sessions = %d", rt.LiveSessions())
	}
}

func TestHeartbeatWithoutLeasingIsNoop(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Heartbeat(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("heartbeat after release: %v, want ErrSessionLost", err)
	}
}
