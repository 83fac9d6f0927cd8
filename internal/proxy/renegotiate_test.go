package proxy

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
)

// holdsByResource sums a session's exported holds per resource.
func holdsByResource(s *Session) map[string]float64 {
	out := make(map[string]float64)
	for _, ex := range s.HoldExports() {
		out[ex.Resource] += ex.Amount
	}
	return out
}

// assertBooksMatchPlan checks that every broker's reserved total equals
// the session plan's requirement on that resource (invariant 5 at the
// broker ledger, not just the session's own exports).
func assertBooksMatchPlan(t *testing.T, s *Session, brokers map[string]*broker.Local) {
	t.Helper()
	req := s.CurrentPlan().Requirement()
	for r, b := range brokers {
		if got, want := b.Reserved(), req[r]; got != want {
			t.Errorf("%s reserved %g, plan at level %s requires %g",
				r, got, s.CurrentPlan().EndToEnd.Name, want)
		}
	}
}

func auditClean(t *testing.T, rt *Runtime, when string) {
	t.Helper()
	for _, msg := range rt.AuditSessions(1e-9) {
		t.Errorf("audit (%s): %s", when, msg)
	}
}

// TestRenegotiateDowngradeAndUpgrade walks a session down a level and
// back up: the downgrade shrinks the surplus in place, the upgrade
// reserves only the delta, and at every stop the broker books match the
// recorded level exactly. QoS-seconds accrue at the rank each segment
// actually ran at.
func TestRenegotiateDowngradeAndUpgrade(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})
	if s.CurrentPlan().EndToEnd.Name != "best" {
		t.Fatalf("established at %s, want best", s.CurrentPlan().EndToEnd.Name)
	}
	assertBooksMatchPlan(t, s, brokers)
	ctx := context.Background()

	// Downgrade after 10 TUs at "best" (rank 2): the surplus is released
	// whole, nothing passes through a released state.
	clock.Advance(10)
	if err := rt.Renegotiate(ctx, s, "ok"); err != nil {
		t.Fatalf("downgrade: %v", err)
	}
	if got := s.CurrentPlan(); got.EndToEnd.Name != "ok" || got.Rank != 1 {
		t.Fatalf("post-downgrade plan %s rank %d, want ok rank 1", got.EndToEnd.Name, got.Rank)
	}
	assertBooksMatchPlan(t, s, brokers)
	auditClean(t, rt, "after downgrade")
	// "ok" has exactly one path: 10 cpu@X, 8 cpu@Y, 10 net.
	for r, want := range map[string]float64{"cpu@X": 90, "cpu@Y": 92, "net:X->Y": 90} {
		if got := brokers[r].Available(); got != want {
			t.Errorf("%s available %g after downgrade, want %g", r, got, want)
		}
	}

	// Upgrade after 10 TUs at "ok" (rank 1): only the delta is newly
	// reserved, through the same 2PC path as admission.
	clock.Advance(10)
	if err := rt.Renegotiate(ctx, s, "best"); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if got := s.CurrentPlan(); got.EndToEnd.Name != "best" || got.Rank != 2 {
		t.Fatalf("post-upgrade plan %s rank %d, want best rank 2", got.EndToEnd.Name, got.Rank)
	}
	assertBooksMatchPlan(t, s, brokers)
	auditClean(t, rt, "after upgrade")

	// Same-level renegotiation is a no-op.
	before := holdsByResource(s)
	if err := rt.Renegotiate(ctx, s, "best"); err != nil {
		t.Fatalf("same-level renegotiate: %v", err)
	}
	if got := holdsByResource(s); !reflect.DeepEqual(got, before) {
		t.Errorf("same-level renegotiate moved holds: %v -> %v", before, got)
	}

	// A level the service does not define is refused outright.
	if err := rt.Renegotiate(ctx, s, "bogus"); err == nil {
		t.Error("renegotiate to an unknown level succeeded")
	}

	// Teardown after 5 more TUs at "best": the delivered QoS-seconds are
	// the rank-weighted integral 10×2 + 10×1 + 5×2 = 40.
	clock.Advance(5)
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.DeliveredQoSSeconds(), 40.0; got != want {
		t.Errorf("delivered QoS-seconds %g, want %g", got, want)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations after release", r, b.Reservations())
		}
	}
}

// TestRenegotiateFailedUpgradeLeavesSessionUntouched pins the refusal
// contract: when the target level has no feasible plan, Renegotiate
// returns before touching the session — same plan object, same holds,
// same state, heartbeats keep working — and the upgrade succeeds later
// once capacity returns.
func TestRenegotiateFailedUpgradeLeavesSessionUntouched(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.AtLevel{Level: "ok"})
	if s.CurrentPlan().EndToEnd.Name != "ok" {
		t.Fatalf("established at %s, want ok", s.CurrentPlan().EndToEnd.Name)
	}
	ctx := context.Background()

	// cpu@Y down to 15: the session holds 8, leaving 7 available — every
	// "best" path needs at least 20 there.
	if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 15); err != nil {
		t.Fatal(err)
	}
	planBefore := s.CurrentPlan()
	holdsBefore := s.HoldExports()
	sort.Slice(holdsBefore, func(i, j int) bool { return holdsBefore[i].ID < holdsBefore[j].ID })

	err := rt.Renegotiate(ctx, s, "best")
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("upgrade into exhausted capacity: %v, want ErrInfeasible", err)
	}

	// Byte-identical at the old level: the very same plan object, the
	// very same holds, still active and heartbeating.
	if got := s.CurrentPlan(); got != planBefore {
		t.Errorf("failed upgrade swapped the plan: %p -> %p", planBefore, got)
	}
	holdsAfter := s.HoldExports()
	sort.Slice(holdsAfter, func(i, j int) bool { return holdsAfter[i].ID < holdsAfter[j].ID })
	if !reflect.DeepEqual(holdsAfter, holdsBefore) {
		t.Errorf("failed upgrade moved holds:\n got %v\nwant %v", holdsAfter, holdsBefore)
	}
	if s.State() != StateActive {
		t.Fatalf("state = %s, want active", s.State())
	}
	if err := s.Heartbeat(); err != nil {
		t.Fatalf("heartbeat after refused upgrade: %v", err)
	}
	assertBooksMatchPlan(t, s, brokers)
	auditClean(t, rt, "after refused upgrade")

	// Capacity returns; the same upgrade now goes through.
	if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 100); err != nil {
		t.Fatal(err)
	}
	if err := rt.Renegotiate(ctx, s, "best"); err != nil {
		t.Fatalf("upgrade after capacity returned: %v", err)
	}
	if got := s.CurrentPlan().EndToEnd.Name; got != "best" {
		t.Fatalf("post-upgrade level %s, want best", got)
	}
	assertBooksMatchPlan(t, s, brokers)
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations after release", r, b.Reservations())
		}
	}
}

// TestRenegotiateRefusesForeignSessions pins the ownership and liveness
// guards.
func TestRenegotiateRefusesForeignSessions(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	other, _, _ := twoHostWorld(t, Options{})
	s := establishPipe(t, rt, core.Basic{})
	if err := other.Renegotiate(context.Background(), s, "ok"); err == nil {
		t.Error("foreign runtime renegotiated another runtime's session")
	}
	if err := rt.Renegotiate(context.Background(), nil, "ok"); err == nil {
		t.Error("renegotiate of a nil session succeeded")
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Renegotiate(context.Background(), s, "ok"); !errors.Is(err, ErrSessionLost) {
		t.Errorf("renegotiate of a released session: %v, want ErrSessionLost", err)
	}
}

// TestLevelAt pins the rank -> level mapping (RankOf's inverse).
func TestLevelAt(t *testing.T) {
	service, _ := pipelineService(t)
	for rank, want := range map[int]string{2: "best", 1: "ok", 0: "", 3: "", -1: ""} {
		if got := LevelAt(service, rank); got != want {
			t.Errorf("LevelAt(%d) = %q, want %q", rank, got, want)
		}
	}
	// LevelAt inverts RankOf for every defined level.
	for _, level := range []string{"best", "ok"} {
		if got := LevelAt(service, service.RankOf(level)); got != level {
			t.Errorf("LevelAt(RankOf(%s)) = %q", level, got)
		}
	}
}
