package adapt

import (
	"context"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/qos"
	"qosres/internal/svc"
	"qosres/internal/topo"
)

func lvl(name string, q float64) svc.Level {
	return svc.Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
}

// world deploys the proxy test topology through the exported API: hosts
// X and Y, a cpu broker each, a net broker on the receiver side.
func world(t *testing.T, opts proxy.Options) (*proxy.Runtime, *proxy.ManualClock, map[string]*broker.Local) {
	t.Helper()
	clock := &proxy.ManualClock{}
	rt := proxy.NewRuntime(clock, opts)
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
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, clock, brokers
}

// pipeService is the two-component, two-level service of the proxy
// tests: "best" (rank 2) holds 30 cpu@X / 20 cpu@Y / 40 net, "ok"
// (rank 1) holds 10 / 8 / 10.
func pipeService(t *testing.T) (*svc.Service, svc.Binding) {
	t.Helper()
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1), lvl("lo", 2)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"cpu": 30}, "lo": {"cpu": 10}},
		}.Func(),
		Resources: []string{"cpu"},
	}
	b := &svc.Component{
		ID: "b",
		In: []svc.Level{lvl("in-hi", 1), lvl("in-lo", 2)},
		Out: []svc.Level{
			lvl("best", 10), lvl("ok", 11),
		},
		Translate: svc.TranslationTable{
			"in-hi": {"best": {"cpu": 20, "net": 40}},
			"in-lo": {"best": {"cpu": 35, "net": 25}, "ok": {"cpu": 8, "net": 10}},
		}.Func(),
		Resources: []string{"cpu", "net"},
	}
	service := svc.MustService("pipe", []*svc.Component{a, b},
		[]svc.Edge{{From: "a", To: "b"}}, []string{"best", "ok"})
	binding := svc.Binding{
		"a": {"cpu": "cpu@X"},
		"b": {"cpu": "cpu@Y", "net": "net:X->Y"},
	}
	return service, binding
}

func establish(t *testing.T, rt *proxy.Runtime, planner core.Planner) *proxy.Session {
	t.Helper()
	service, binding := pipeService(t)
	s, err := rt.Establish("X", proxy.SessionSpec{Service: service, Binding: binding, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p != DefaultPolicy() {
		t.Errorf("zero policy normalized to %+v, want defaults %+v", p, DefaultPolicy())
	}
	// An inverted band collapses onto the high watermark instead of
	// creating a region where both directions fire.
	p = Policy{HighWater: 0.5, LowWater: 0.9}.withDefaults()
	if p.LowWater != p.HighWater {
		t.Errorf("inverted watermarks kept: low %g, high %g", p.LowWater, p.HighWater)
	}
	if p.FloorRank < 1 {
		t.Errorf("floor rank %d below 1", p.FloorRank)
	}
}

// TestHysteresisUnderOscillatingLoad is the no-flap tentpole: a square
// wave of external contention toggling every tick — far faster than the
// cooldown — must bound each session's renegotiations by duration /
// cooldown, with the hysteresis band absorbing ticks and the cooldown
// suppressing the rest. The session books stay audit-clean on every
// single tick.
func TestHysteresisUnderOscillatingLoad(t *testing.T) {
	reg := obs.New()
	metrics := obs.NewAdaptMetrics(reg)
	rt, clock, brokers := world(t, proxy.Options{Metrics: reg})

	s1 := establish(t, rt, core.Basic{})
	s2 := establish(t, rt, core.Basic{})
	for _, s := range []*proxy.Session{s1, s2} {
		if got := s.CurrentPlan().EndToEnd.Name; got != "best" {
			t.Fatalf("established at %s, want best", got)
		}
	}

	const (
		ticks    = 200
		cooldown = 10
	)
	var list []broker.Broker
	for _, b := range brokers {
		list = append(list, b)
	}
	ctrl := New(rt, Policy{
		HighWater:         0.85,
		LowWater:          0.55,
		Cooldown:          cooldown,
		MaxActionsPerTick: 4,
	}, list)
	ctrl.Instrument(metrics)

	// The square wave: external contention grabbing 95% of cpu@Y's
	// remaining availability on even ticks, released on odd ones —
	// utilization slams past the high watermark and back far faster
	// than the cooldown allows reacting.
	hot := brokers["cpu@Y"]
	var surge broker.ReservationID
	surged := false
	ctx := context.Background()
	renegotiated := 0
	for i := 0; i < ticks; i++ {
		clock.Advance(1)
		now := clock.Now()
		if i%2 == 0 && !surged {
			if avail := hot.Available(); avail > 1 {
				id, err := hot.Reserve(now, avail*0.95)
				if err != nil {
					t.Fatalf("tick %d: surge: %v", i, err)
				}
				surge, surged = id, true
			}
		} else if surged {
			if err := hot.Release(now, surge); err != nil {
				t.Fatal(err)
			}
			surged = false
		}
		for _, a := range ctrl.Tick(ctx, now) {
			if a.Err != nil {
				t.Logf("tick %d: -> %s refused: %v", i, a.Level, a.Err)
				continue
			}
			renegotiated++
			if a.ToRank < ctrl.Policy().FloorRank {
				t.Fatalf("tick %d: downgraded below the floor: %d -> %d", i, a.FromRank, a.ToRank)
			}
		}
		for _, msg := range rt.AuditSessions(1e-9) {
			t.Fatalf("tick %d: audit: %s", i, msg)
		}
	}

	// The flap bound: each session renegotiates at most once per
	// cooldown window, whatever the (much faster) load oscillation does.
	if max := 2 * (ticks/cooldown + 1); renegotiated > max {
		t.Errorf("%d renegotiations over %d ticks, cooldown bound is %d", renegotiated, ticks, max)
	}
	if renegotiated < 4 {
		t.Errorf("only %d renegotiations — the controller never adapted", renegotiated)
	}
	if got := int(metrics.Upgrades.Value() + metrics.Downgrades.Value()); got != renegotiated {
		t.Errorf("metrics count %d renegotiations, controller reported %d", got, renegotiated)
	}
	if metrics.FlapsSuppressed.Value() == 0 {
		t.Error("oscillating load suppressed no flaps — the cooldown never engaged")
	}
	if metrics.Held.Value() == 0 {
		t.Error("no tick landed in the hysteresis band")
	}

	if surged {
		if err := hot.Release(clock.Now(), surge); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*proxy.Session{s1, s2} {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for r, b := range brokers {
		if b.Reservations() != 0 {
			t.Errorf("%s holds %d reservations after drain", r, b.Reservations())
		}
	}
}

// TestAdaptationDeliversMoreQoS is the acceptance comparison, run
// deterministically: a session admitted at a degraded level during a
// capacity dip delivers strictly more QoS-seconds with the controller
// (which upgrades it once the dip passes) than without, same world and
// same timeline.
func TestAdaptationDeliversMoreQoS(t *testing.T) {
	run := func(adaptive bool) float64 {
		rt, clock, brokers := world(t, proxy.Options{})
		// A capacity dip at admission time: "best" needs 20 cpu@Y, only
		// "ok" (8) fits under a 15-unit cap.
		if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 15); err != nil {
			t.Fatal(err)
		}
		s := establish(t, rt, core.Basic{})
		if got := s.CurrentPlan().EndToEnd.Name; got != "ok" {
			t.Fatalf("established at %s, want ok under the dip", got)
		}
		if err := brokers["cpu@Y"].SetCapacity(clock.Now(), 100); err != nil {
			t.Fatal(err)
		}

		var ctrl *Controller
		if adaptive {
			var list []broker.Broker
			for _, b := range brokers {
				list = append(list, b)
			}
			ctrl = New(rt, Policy{HighWater: 0.85, LowWater: 0.55, Cooldown: 1}, list)
		}
		ctx := context.Background()
		for i := 0; i < 50; i++ {
			clock.Advance(1)
			if ctrl != nil {
				ctrl.Tick(ctx, clock.Now())
			}
		}
		if adaptive {
			if got := s.CurrentPlan().EndToEnd.Name; got != "best" {
				t.Fatalf("controller never upgraded: still at %s", got)
			}
		}
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
		return rt.DeliveredQoSSeconds()
	}

	baseline := run(false)
	adapted := run(true)
	if adapted < baseline {
		t.Errorf("adaptation delivered %g QoS-seconds, baseline %g", adapted, baseline)
	}
	if adapted <= baseline {
		t.Errorf("upgrade path added nothing: adaptive %g vs baseline %g", adapted, baseline)
	}
}
