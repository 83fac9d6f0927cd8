package proxy

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/topo"
	"qosres/internal/transport"
)

// unreliableWorld is twoHostWorld rebased on a caller-configured fabric.
func unreliableWorld(t *testing.T, fabric transport.Options, opts Options) (*Runtime, *ManualClock, map[string]*broker.Local) {
	t.Helper()
	opts.Transport = transport.New(fabric)
	return twoHostWorld(t, opts)
}

// stall is a proxy that accepts messages and answers none until release
// is closed; dropped counts the deliveries it swallowed.
type stall struct {
	release chan struct{}
	dropped atomic.Int64
}

// stallProxy wedges the named proxy of a started runtime: each handler
// p.handlers returns is wrapped to drop its deliveries until the stall
// is released, and to answer them as before from then on.
func stallProxy(t *testing.T, rt *Runtime, host topo.HostID) *stall {
	t.Helper()
	p, ok, started := rt.proxyOn(host)
	if !ok || !started {
		t.Fatalf("no started proxy on %s", host)
	}
	st := &stall{release: make(chan struct{})}
	for kind, h := range p.handlers() {
		p.ep.SetHandler(kind, func(d transport.Delivery) {
			select {
			case <-st.release:
				h(d)
			default:
				st.dropped.Add(1)
			}
		})
	}
	return st
}

// TestEstablishReturnsByDeadlineWhenProxyStalls is the hang-regression
// test: a participant QoSProxy that accepts protocol messages but never
// answers them must not hang Establish past its deadline — the call
// degrades or aborts and returns.
func TestEstablishReturnsByDeadlineWhenProxyStalls(t *testing.T) {
	rt, _, _ := unreliableWorld(t, transport.Options{}, Options{})
	service, binding := pipelineService(t)

	stalled := stallProxy(t, rt, "Y")
	deadlineCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := rt.EstablishContext(deadlineCtx, "X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("establish succeeded against a stalled participant")
	}
	// The call must return promptly once the deadline expires, never
	// block on the silent proxy. Generous bound: the assertion catches
	// hangs, not scheduling slop.
	if elapsed > 5*time.Second {
		t.Fatalf("establish blocked %v on a stalled participant", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("unexpected error class: %v", err)
	}

	// Releasing the stall restores service.
	close(stalled.release)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatalf("establish after unstall: %v", err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestEstablishDegradesToCachedReportsUnderPartition pins the phase-1
// degradation ladder: once a host's reports are cached, a partition
// does not exclude it — planning proceeds from the aged cache, and the
// commit's re-validation keeps correctness.
func TestEstablishDegradesToCachedReportsUnderPartition(t *testing.T) {
	rt, _, _ := unreliableWorld(t, transport.Options{}, Options{})
	service, binding := pipelineService(t)

	// Prime the report cache with one successful admission.
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}

	// Partition X from Y: phase 1 degrades to the cached reports, but
	// phase 3's prepare cannot reach Y either, so admission times out —
	// without ever hanging.
	rt.Transport().Partition("X", "Y")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = rt.EstablishContext(ctx, "X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err == nil {
		t.Fatal("establish succeeded across a partition")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned establish error = %v, want deadline expiry", err)
	}

	// Healing restores full service; no residual holds from the aborted
	// attempt may survive.
	rt.Transport().Heal("X", "Y")
	rt.Transport().Settle()
	s, err = rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatalf("establish after heal: %v", err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairAbandonsAtDeadline pins the bounded repair sweep: with the
// deadline already expired, every candidate session is abandoned (left
// untouched, counted under qosres_repair_deadline_abandoned_total)
// instead of repaired.
func TestRepairAbandonsAtDeadline(t *testing.T) {
	reg := obs.New()
	rt, _, brokers := twoHostWorld(t, Options{Metrics: reg})
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	reservedBefore := brokers["cpu@Y"].Reserved()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the sweep's deadline has already passed
	rep := rt.RepairAffectedContext(ctx, []string{"cpu@Y"})
	if rep.Abandoned != 1 || rep.Affected != 0 {
		t.Fatalf("report = %+v, want 1 abandoned, 0 affected", rep)
	}
	// The abandoned session keeps its reservation untouched.
	if got := brokers["cpu@Y"].Reserved(); got != reservedBefore {
		t.Fatalf("abandoned session's holds changed: %g -> %g", reservedBefore, got)
	}
	if s.State() != StateActive {
		t.Fatalf("abandoned session state = %v", s.State())
	}
	var counted float64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == obs.MetricRepairAbandoned {
			counted += c.Value
		}
	}
	if counted != 1 {
		t.Fatalf("%s = %g, want 1", obs.MetricRepairAbandoned, counted)
	}

	// An unbounded sweep still examines it.
	if rep := rt.RepairAffectedContext(context.Background(), []string{"cpu@Y"}); rep.Abandoned != 0 || rep.Affected != 1 {
		t.Fatalf("unbounded sweep report = %+v", rep)
	}
	_ = s.Release()
}

// bookOf renders a broker set's reservation books in a canonical form:
// per resource, the reserved total, live hold count, and availability.
func bookOf(brokers map[string]*broker.Local) string {
	var sb strings.Builder
	for _, r := range []string{"cpu@X", "cpu@Y", "net:X->Y"} {
		b := brokers[r]
		fmt.Fprintf(&sb, "%s: reserved=%.6f holds=%d avail=%.6f\n",
			r, b.Reserved(), b.Reservations(), b.Available())
	}
	return sb.String()
}

// TestDuplicatedMessagesCommitExactlyOnce is the idempotence test: a
// fabric that delivers EVERY protocol message (and every reply) twice
// must leave the brokers' books byte-identical to an exactly-once run —
// duplicate prepares must not double-hold, duplicate commits must not
// double-charge, duplicate aborts must not double-release.
func TestDuplicatedMessagesCommitExactlyOnce(t *testing.T) {
	// The basic planner keeps the two runs' plans identical: duplicated
	// availability requests record extra α samples at the brokers, which
	// only the tradeoff policy would observe.
	scenario := func(t *testing.T, opts transport.Options) (string, string) {
		rt, _, brokers := unreliableWorld(t, opts, Options{})
		service, binding := pipelineService(t)
		var sessions []*Session
		for i := 0; i < 3; i++ {
			s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
			if err != nil {
				t.Fatalf("establish %d: %v", i, err)
			}
			sessions = append(sessions, s)
		}
		rt.Transport().Settle()
		held := bookOf(brokers)
		for _, s := range sessions {
			if err := s.Release(); err != nil {
				t.Fatal(err)
			}
		}
		rt.Transport().Settle()
		return held, bookOf(brokers)
	}

	exactHeld, exactDrained := scenario(t, transport.Options{})
	dupHeld, dupDrained := scenario(t, transport.Options{
		Defaults: transport.RouteConfig{Dup: 1},
	})
	if exactHeld != dupHeld {
		t.Errorf("held books diverge:\nexactly-once:\n%s\nduplicated:\n%s", exactHeld, dupHeld)
	}
	if exactDrained != dupDrained {
		t.Errorf("drained books diverge:\nexactly-once:\n%s\nduplicated:\n%s", exactDrained, dupDrained)
	}
	if !strings.Contains(dupDrained, "holds=0") {
		t.Errorf("drained duplicated-run book still holds capacity:\n%s", dupDrained)
	}
}

// TestMaxInFlightShedsConcurrentAdmissions pins the overload gate: with
// the in-flight bound at 1, a second concurrent Establish is shed with
// transport.ErrOverloaded (and counted), not queued.
func TestMaxInFlightShedsConcurrentAdmissions(t *testing.T) {
	reg := obs.New()
	rt, _, _ := unreliableWorld(t, transport.Options{}, Options{
		Metrics:     reg,
		MaxInFlight: 1,
	})
	service, binding := pipelineService(t)

	// Wedge Y so the first admission parks inside the protocol holding
	// its gate slot.
	stalled := stallProxy(t, rt, "Y")
	firstDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	go func() {
		_, err := rt.EstablishContext(ctx, "X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
		firstDone <- err
	}()
	// Wait for the first admission to reach Y, inside its gate slot.
	for i := 0; stalled.dropped.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("first admission never reached the stalled proxy")
		}
		time.Sleep(time.Millisecond)
	}

	// The second call must shed immediately while the first is in flight.
	_, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("concurrent admission error = %v, want %v", err, transport.ErrOverloaded)
	}
	// The stall dropped the first admission's messages: end its wait.
	close(stalled.release)
	cancel()
	<-firstDone

	var shed float64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == obs.MetricAdmissionShed {
			shed += c.Value
		}
	}
	if shed < 1 {
		t.Fatalf("%s = %g, want >= 1", obs.MetricAdmissionShed, shed)
	}

	// With the gate free again, admissions pass.
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatalf("establish after gate drained: %v", err)
	}
	_ = s.Release()
}
