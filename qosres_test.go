package qosres_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"qosres"
)

// buildTinyService exercises the public API the way a downstream user
// would.
func buildTinyService(t *testing.T) (*qosres.Service, qosres.Binding) {
	t.Helper()
	hi := qosres.MustVector(qosres.P("rate", 30))
	lo := qosres.MustVector(qosres.P("rate", 15))
	src := &qosres.Component{
		ID:  "src",
		In:  []qosres.Level{{Name: "in", Vector: hi}},
		Out: []qosres.Level{{Name: "hi", Vector: hi}, {Name: "lo", Vector: lo}},
		Translate: qosres.TranslationTable{
			"in": {"hi": qosres.ResourceVector{"cpu": 50}, "lo": qosres.ResourceVector{"cpu": 20}},
		}.Func(),
		Resources: []string{"cpu"},
	}
	dst := &qosres.Component{
		ID:  "dst",
		In:  []qosres.Level{{Name: "d-hi", Vector: hi}, {Name: "d-lo", Vector: lo}},
		Out: []qosres.Level{{Name: "good", Vector: qosres.MustVector(qosres.P("rate", 30), qosres.P("d", 1))}, {Name: "poor", Vector: qosres.MustVector(qosres.P("rate", 15), qosres.P("d", 2))}},
		Translate: qosres.TranslationTable{
			"d-hi": {"good": qosres.ResourceVector{"net": 60}},
			"d-lo": {"good": qosres.ResourceVector{"net": 90}, "poor": qosres.ResourceVector{"net": 30}},
		}.Func(),
		Resources: []string{"net"},
	}
	s, err := qosres.NewService("tiny", []*qosres.Component{src, dst},
		[]qosres.ServiceEdge{{From: "src", To: "dst"}}, []string{"good", "poor"})
	if err != nil {
		t.Fatal(err)
	}
	return s, qosres.Binding{
		"src": {"cpu": "cpu@a"},
		"dst": {"net": "net@a"},
	}
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	service, binding := buildTinyService(t)
	pool := qosres.NewPool(nil)
	if _, err := pool.AddLocal("cpu", "a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.AddLocal("net", "a", 100); err != nil {
		t.Fatal(err)
	}
	snap, err := pool.Snapshot(0, []string{"cpu@a", "net@a"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := qosres.NewBasicPlanner().Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EndToEnd.Name != "good" || plan.Psi != 0.6 {
		t.Fatalf("plan = %s / %v", plan.EndToEnd.Name, plan.Psi)
	}
	res, err := pool.ReserveAllAtomic(0, plan.Requirement())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Release(1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIVectorOrdering(t *testing.T) {
	a := qosres.MustVector(qosres.P("x", 1), qosres.P("y", 2))
	b := qosres.MustVector(qosres.P("x", 2), qosres.P("y", 2))
	ord, err := a.Compare(b)
	if err != nil || ord != qosres.Less {
		t.Fatalf("Compare = %v, %v", ord, err)
	}
	if qosres.Incomparable == qosres.Equal {
		t.Fatal("ordering constants collide")
	}
}

func TestPublicAPIInfeasible(t *testing.T) {
	service, binding := buildTinyService(t)
	snap := &qosres.Snapshot{Avail: qosres.ResourceVector{"cpu@a": 5, "net@a": 5}, Alpha: map[string]float64{}}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = qosres.NewBasicPlanner().Plan(g)
	if !errors.Is(err, qosres.ErrInfeasible) {
		t.Fatalf("err = %v, want qosres.ErrInfeasible", err)
	}
}

func TestPublicAPIPlanners(t *testing.T) {
	service, binding := buildTinyService(t)
	snap := &qosres.Snapshot{Avail: qosres.ResourceVector{"cpu@a": 100, "net@a": 100}, Alpha: map[string]float64{"cpu@a": 1, "net@a": 1}}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []qosres.Planner{
		qosres.NewBasicPlanner(),
		qosres.NewTradeoffPlanner(),
		qosres.NewRandomPlanner(1),
		qosres.NewTwoPassPlanner(),
		qosres.NewExhaustivePlanner(),
	} {
		plan, err := p.Plan(g)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if plan.EndToEnd.Name != "good" {
			t.Errorf("%s picked %s", p.Name(), plan.EndToEnd.Name)
		}
	}
}

func TestPublicAPITopology(t *testing.T) {
	topo := qosres.Figure9Topology()
	if len(topo.Hosts()) != 12 || len(topo.Links()) != 14 {
		t.Fatalf("figure 9 shape wrong: %d hosts, %d links", len(topo.Hosts()), len(topo.Links()))
	}
	custom, err := qosres.NewTopology(
		[]qosres.HostID{"a", "b"},
		[]qosres.Link{{ID: "l", A: "a", B: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	route, err := custom.Route("a", "b")
	if err != nil || len(route) != 1 {
		t.Fatalf("route = %v, %v", route, err)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	cfg := qosres.DefaultSimConfig(qosres.SimBasic, 120, 9)
	cfg.Duration = 600
	res, err := qosres.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Overall.Attempts == 0 {
		t.Fatal("no sessions simulated")
	}
	rate := res.Metrics.Overall.SuccessRate()
	if rate <= 0 || rate > 1 {
		t.Fatalf("success rate = %v", rate)
	}
}

func TestPublicAPIRuntime(t *testing.T) {
	service, binding := buildTinyService(t)
	clock := &qosres.ManualClock{}
	rt := qosres.NewRuntime(clock)
	if _, err := rt.AddHost("a"); err != nil {
		t.Fatal(err)
	}
	cpu, err := qosres.NewLocalBroker("cpu@a", 100)
	if err != nil {
		t.Fatal(err)
	}
	net, err := qosres.NewLocalBroker("net@a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy("a", cpu); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy("a", net); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	session, err := rt.Establish("a", qosres.SessionSpec{
		Service: service, Binding: binding, Planner: qosres.NewBasicPlanner(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if session.Plan.EndToEnd.Name != "good" {
		t.Fatalf("end-to-end = %s", session.Plan.EndToEnd.Name)
	}
	clock.Advance(10)
	if err := session.Release(); err != nil {
		t.Fatal(err)
	}
	if cpu.Available() != 100 || net.Available() != 100 {
		t.Fatal("release did not restore availability")
	}
}

func TestFacadeWrapperCoverage(t *testing.T) {
	// Exercise the thin facade wrappers end to end.
	if qosres.NewWallClock(2) == nil {
		t.Fatal("NewWallClock")
	}
	ring := qosres.NewTraceRing(4)
	var buf bytes.Buffer
	jsonl := qosres.NewTraceJSONL(&buf)
	cfg := qosres.DefaultSimConfig(qosres.SimTradeoff, 90, 2)
	cfg.Duration = 300
	cfg.Tracer = qosres.TraceMulti{ring, jsonl}
	res, err := qosres.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("ring tracer empty")
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("jsonl tracer empty")
	}
	_ = res

	service, binding := buildTinyService(t)
	snap := &qosres.Snapshot{
		Avail: qosres.ResourceVector{"cpu@a": 100, "net@a": 100},
		Alpha: map[string]float64{},
	}
	g, err := qosres.BuildQRG(service, binding, snap)
	if err != nil {
		t.Fatal(err)
	}
	counts := qosres.FeasiblePlanCounts(g)
	if len(counts) == 0 {
		t.Fatal("no plan counts")
	}
	plan, err := qosres.NewBasicPlanner().Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := qosres.ValidatePlan(g, plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.DOT(), "digraph QRG") {
		t.Fatal("DOT export broken through facade")
	}

	rngPlanner := qosres.NewRandomPlannerRNG(rand.New(rand.NewSource(1)))
	if _, err := rngPlanner.Plan(g); err != nil {
		t.Fatal(err)
	}

	if qosres.ErrInsufficient == nil || qosres.ErrInfeasible == nil {
		t.Fatal("sentinel errors missing")
	}
}
