package proxy

import (
	"strings"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/svc"
	"qosres/internal/topo"
)

func svcHost(h string) topo.HostID { return topo.HostID(h) }

func newLocalForTest(resource string, capacity float64) (*broker.Local, error) {
	return broker.NewLocal(resource, capacity)
}

// string2Host converts a string placement map into the Skeleton form.
func string2Host(m map[string]string) map[svc.ComponentID]topo.HostID {
	out := make(map[svc.ComponentID]topo.HostID, len(m))
	for c, h := range m {
		out[svc.ComponentID(c)] = topo.HostID(h)
	}
	return out
}

func distWorldUnstarted(t *testing.T) (*Runtime, svc.Binding, map[string]*svc.Component) {
	t.Helper()
	clock := &ManualClock{}
	rt := NewRuntime(clock, Options{})
	for _, h := range []string{"X", "Y"} {
		if _, err := rt.AddHost(svcHost(h)); err != nil {
			t.Fatal(err)
		}
	}
	service, binding := pipelineService(t)
	comps := map[string]*svc.Component{
		"a": service.Components["a"],
		"b": service.Components["b"],
	}
	// Deploy brokers as in twoHostWorld.
	mk := func(resource string, host string) {
		b, err := newLocalForTest(resource, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(svcHost(host), b); err != nil {
			t.Fatal(err)
		}
	}
	mk("cpu@X", "X")
	mk("cpu@Y", "Y")
	mk("net:X->Y", "Y")
	return rt, binding, comps
}

func TestEstablishDistributed(t *testing.T) {
	rt, binding, comps := distWorldUnstarted(t)
	if err := rt.StoreComponent("X", "pipe", comps["a"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreComponent("Y", "pipe", comps["b"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreSkeleton("X", Skeleton{
		Name:      "pipe",
		Placement: string2Host(map[string]string{"a": "X", "b": "Y"}),
		Edges:     []svc.Edge{{From: "a", To: "b"}},
		Ranking:   []string{"best", "ok"},
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	s, err := rt.EstablishDistributed("X", "pipe", binding, core.Basic{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.EndToEnd.Name != "best" {
		t.Fatalf("end-to-end = %s", s.Plan.EndToEnd.Name)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestEstablishDistributedMatchesCentralized(t *testing.T) {
	rt, binding, comps := distWorldUnstarted(t)
	if err := rt.StoreComponent("X", "pipe", comps["a"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreComponent("Y", "pipe", comps["b"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreSkeleton("X", Skeleton{
		Name:      "pipe",
		Placement: string2Host(map[string]string{"a": "X", "b": "Y"}),
		Edges:     []svc.Edge{{From: "a", To: "b"}},
		Ranking:   []string{"best", "ok"},
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	sd, err := rt.EstablishDistributed("X", "pipe", binding, core.Basic{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Release(); err != nil {
		t.Fatal(err)
	}
	service, _ := pipelineService(t)
	sc, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sc.Release(); err != nil {
			t.Fatal(err)
		}
	}()
	if sd.Plan.EndToEnd.Name != sc.Plan.EndToEnd.Name || sd.Plan.Psi != sc.Plan.Psi {
		t.Fatalf("distributed plan (%s, %v) != centralized (%s, %v)",
			sd.Plan.EndToEnd.Name, sd.Plan.Psi, sc.Plan.EndToEnd.Name, sc.Plan.Psi)
	}
}

func TestDistributedStorageValidation(t *testing.T) {
	rt, _, comps := distWorldUnstarted(t)
	if err := rt.StoreComponent("X", "pipe", nil); err == nil {
		t.Fatal("nil component accepted")
	}
	if err := rt.StoreComponent("ghost", "pipe", comps["a"]); err == nil {
		t.Fatal("unknown host accepted")
	}
	if err := rt.StoreComponent("X", "pipe", comps["a"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreComponent("X", "pipe", comps["a"]); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if err := rt.StoreSkeleton("X", Skeleton{}); err == nil {
		t.Fatal("empty skeleton accepted")
	}
	if err := rt.StoreSkeleton("X", Skeleton{
		Name:      "pipe",
		Placement: string2Host(map[string]string{"a": "ghost"}),
	}); err == nil {
		t.Fatal("placement on unknown host accepted")
	}
	sk := Skeleton{
		Name:      "pipe",
		Placement: string2Host(map[string]string{"a": "X"}),
		Ranking:   []string{"best", "ok"},
	}
	if err := rt.StoreSkeleton("X", sk); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreSkeleton("X", sk); err == nil {
		t.Fatal("duplicate skeleton accepted")
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.StoreComponent("Y", "pipe", comps["b"]); err == nil {
		t.Fatal("StoreComponent after Start accepted")
	}
	if _, err := rt.EstablishDistributed("X", "unknown", nil, core.Basic{}); err == nil {
		t.Fatal("unknown skeleton accepted")
	}
}

func TestEstablishDistributedMissingComponent(t *testing.T) {
	rt, binding, comps := distWorldUnstarted(t)
	// Store only one of the two components.
	if err := rt.StoreComponent("X", "pipe", comps["a"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreSkeleton("X", Skeleton{
		Name:      "pipe",
		Placement: string2Host(map[string]string{"a": "X", "b": "Y"}),
		Edges:     []svc.Edge{{From: "a", To: "b"}},
		Ranking:   []string{"best", "ok"},
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	_, err := rt.EstablishDistributed("X", "pipe", binding, core.Basic{})
	if err == nil || !strings.Contains(err.Error(), "not stored") && !strings.Contains(err.Error(), "no components") {
		t.Fatalf("err = %v", err)
	}
}
