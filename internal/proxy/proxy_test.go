package proxy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/qos"
	"qosres/internal/svc"
	"qosres/internal/topo"
)

func lvl(name string, q float64) svc.Level {
	return svc.Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
}

// twoHostWorld deploys proxies on hosts X and Y, a cpu broker on each,
// and a shared "net" broker on Y (the receiver side).
func twoHostWorld(t *testing.T, opts Options) (*Runtime, *ManualClock, map[string]*broker.Local) {
	t.Helper()
	clock := &ManualClock{}
	rt := NewRuntime(clock, opts)
	brokers := map[string]*broker.Local{}
	for _, h := range []topo.HostID{"X", "Y"} {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(resource string, cap float64, host topo.HostID) {
		b, err := broker.NewLocal(resource, cap)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(host, b); err != nil {
			t.Fatal(err)
		}
		brokers[resource] = b
	}
	mk("cpu@X", 100, "X")
	mk("cpu@Y", 100, "Y")
	mk("net:X->Y", 100, "Y")
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, clock, brokers
}

// pipelineService is a two-component service spanning X and Y.
func pipelineService(t *testing.T) (*svc.Service, svc.Binding) {
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

func TestEstablishAndRelease(t *testing.T) {
	rt, _, brokers := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.EndToEnd.Name != "best" {
		t.Fatalf("end-to-end = %s", s.Plan.EndToEnd.Name)
	}
	// The plan reserves on both hosts.
	if got := brokers["cpu@X"].Available(); got >= 100 {
		t.Fatalf("cpu@X untouched: %v", got)
	}
	if got := brokers["cpu@Y"].Available(); got >= 100 {
		t.Fatalf("cpu@Y untouched: %v", got)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	for r, b := range brokers {
		if b.Available() != 100 {
			t.Errorf("%s not restored: %v", r, b.Available())
		}
	}
	// Release is idempotent.
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestEstablishDegradesUnderLoad(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	var sessions []*Session
	levels := map[string]int{}
	for {
		s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
		if err != nil {
			break
		}
		levels[s.Plan.EndToEnd.Name]++
		sessions = append(sessions, s)
	}
	if levels["best"] == 0 || levels["ok"] == 0 {
		t.Fatalf("expected both levels as the pool drains, got %v", levels)
	}
	for _, s := range sessions {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEstablishInfeasible(t *testing.T) {
	rt, _, brokers := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	// Drain the net resource entirely.
	if _, err := brokers["net:X->Y"].Reserve(0, 100); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// Nothing must be leaked on the other brokers.
	if brokers["cpu@X"].Available() != 100 || brokers["cpu@Y"].Available() != 100 {
		t.Fatal("failed establish leaked reservations")
	}
}

func TestEstablishConcurrentNoOverbooking(t *testing.T) {
	rt, _, brokers := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sessions []*Session
	for i := 0; i < 32; i++ {
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
	// No broker may be overbooked.
	for r, b := range brokers {
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
			t.Errorf("%s not restored after concurrent churn: %v", r, b.Available())
		}
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", r, b.Reservations())
		}
	}
}

func TestEstablishValidation(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	if _, err := rt.Establish("nowhere", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}); err == nil {
		t.Fatal("unknown main host accepted")
	}
	if _, err := rt.Establish("X", SessionSpec{Binding: binding, Planner: core.Basic{}}); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := rt.Establish("X", SessionSpec{Service: service, Planner: core.Basic{}}); err == nil {
		t.Fatal("empty binding accepted")
	}
	// Binding targeting an undeployed resource.
	bad := svc.Binding{
		"a": {"cpu": "cpu@X"},
		"b": {"cpu": "cpu@Y", "net": "net:ghost"},
	}
	if _, err := rt.Establish("X", SessionSpec{Service: service, Binding: bad, Planner: core.Basic{}}); err == nil {
		t.Fatal("undeployed resource accepted")
	}
}

func TestRuntimeDeployValidation(t *testing.T) {
	rt := NewRuntime(&ManualClock{}, Options{})
	if _, err := rt.AddHost("X"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddHost("X"); err == nil {
		t.Fatal("duplicate host accepted")
	}
	b, _ := broker.NewLocal("cpu@X", 1)
	if err := rt.Deploy("ghost", b); err == nil {
		t.Fatal("deploy to unknown host accepted")
	}
	if err := rt.Deploy("X", b); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy("X", b); err == nil {
		t.Fatal("duplicate resource deploy accepted")
	}
	if h, _, ok := rt.owning("cpu@X"); !ok || h != "X" {
		t.Fatalf("owner = %v %v", h, ok)
	}
	rt.Start()
	defer rt.Stop()
	if _, err := rt.AddHost("Y"); err == nil {
		t.Fatal("AddHost after Start accepted")
	}
	b2, _ := broker.NewLocal("mem@X", 1)
	if err := rt.Deploy("X", b2); err == nil {
		t.Fatal("Deploy after Start accepted")
	}
}

func TestEstablishBeforeStartFails(t *testing.T) {
	rt := NewRuntime(&ManualClock{}, Options{})
	if _, err := rt.AddHost("X"); err != nil {
		t.Fatal(err)
	}
	service, binding := pipelineService(t)
	if _, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}); err == nil {
		t.Fatal("establish before Start accepted")
	}
}

func TestManualClock(t *testing.T) {
	c := &ManualClock{}
	if c.Now() != 0 {
		t.Fatal("fresh clock not at 0")
	}
	c.Advance(5)
	c.Advance(2.5)
	if c.Now() != 7.5 {
		t.Fatalf("now = %v", c.Now())
	}
	c.Advance(92.5)
	if c.Now() != 100 {
		t.Fatalf("now = %v", c.Now())
	}
}

func TestProxyResourcesListing(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	rt.mu.Lock()
	p := rt.proxies["Y"]
	rt.mu.Unlock()
	rs := make([]string, 0, len(p.brokers))
	for r := range p.brokers {
		rs = append(rs, r)
	}
	sort.Strings(rs)
	if len(rs) != 2 || rs[0] != "cpu@Y" || rs[1] != "net:X->Y" {
		t.Fatalf("Y resources = %v", rs)
	}
	for _, r := range rs {
		if h, owner, ok := rt.owning(r); !ok || h != "Y" || owner != p {
			t.Fatalf("%s owned by %v (%p), want Y (%p)", r, h, owner, p)
		}
	}
}

func TestStopIsIdempotentAndRestartable(t *testing.T) {
	clock := &ManualClock{}
	rt := NewRuntime(clock, Options{})
	if _, err := rt.AddHost("X"); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.Start() // no-op
	rt.Stop()
	rt.Stop() // no-op
}

// TestRouteResolvedOncePerDeployment: admissions of one template share
// one route, resolved against the deployment Start published — one leg
// per owning host, in host order — and a restart, which publishes a new
// deployment, has the next admission resolve it again.
func TestRouteResolvedOncePerDeployment(t *testing.T) {
	rt, _, _ := twoHostWorld(t, Options{})
	service, binding := pipelineService(t)
	spec := SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}
	cycle := func() {
		t.Helper()
		s, err := rt.Establish("X", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	tpl, err := rt.templates.Get(service, binding)
	if err != nil {
		t.Fatal(err)
	}
	first := rt.routeOf(tpl)
	var legs []string
	for _, l := range first.legs {
		legs = append(legs, fmt.Sprintf("%s%v", l.host, l.resources))
	}
	if got, want := strings.Join(legs, " "), "X[cpu@X] Y[cpu@Y net:X->Y]"; got != want {
		t.Fatalf("route legs %q, want %q", got, want)
	}
	cycle()
	if rt.routeOf(tpl) != first {
		t.Fatal("a second admission resolved the template's route again")
	}
	rt.Stop()
	rt.Start()
	cycle()
	if rt.routeOf(tpl) == first {
		t.Fatal("the route resolved against the stopped deployment survived a restart")
	}

	stray := svc.Binding{"a": binding["a"], "b": {"cpu": "cpu@Y", "net": "net:X->Z"}}
	if _, err := rt.Establish("X", SessionSpec{Service: service, Binding: stray, Planner: core.Basic{}}); err == nil ||
		!strings.Contains(err.Error(), "net:X->Z deployed nowhere") {
		t.Fatalf("establish over an undeployed resource: err = %v", err)
	}
}
