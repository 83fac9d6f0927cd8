package proxy

import (
	"reflect"
	"strings"
	"testing"

	"qosres/internal/core"
)

// TestOptionsZeroValueIsDefaultRuntime pins what Options{} means: the
// default admission policy (three replanning retries, no backoff), the
// compiled-template fast lane on, a perfect fabric, an unbounded
// admission gate, no leasing, no durability, and inert instrumentation.
func TestOptionsZeroValueIsDefaultRuntime(t *testing.T) {
	rt, clock, brokers := twoHostWorld(t, Options{})

	if rt.policy != DefaultAdmitPolicy || rt.policy.MaxRetries != 3 || rt.jitter != nil {
		t.Errorf("policy = %+v (jitter %v), want DefaultAdmitPolicy with MaxRetries 3 and no jitter", rt.policy, rt.jitter)
	}
	if rt.leaseTTL != 0 || rt.wal != nil || rt.tracer != nil {
		t.Errorf("leaseTTL %v, wal %v, tracer %v; want none of them", rt.leaseTTL, rt.wal, rt.tracer)
	}
	if rt.stages == nil || rt.admit == nil || rt.faults == nil || rt.adapt == nil || rt.walMetrics == nil {
		t.Fatal("a nil metric set survived normalisation")
	}

	// Unbounded gate: no number of concurrent holders is refused.
	for i := 0; i < 1000; i++ {
		if err := rt.gate.TryAcquire(); err != nil {
			t.Fatalf("gate refused holder %d: %v", i, err)
		}
	}
	for i := 0; i < 1000; i++ {
		rt.gate.Release()
	}

	// Retries are on: a commit-time refusal replans against a fresh
	// snapshot and admits the degraded level instead of failing.
	service, binding := pipelineService(t)
	planner := &stealPlanner{inner: core.Basic{}, target: brokers["net:X->Y"], amount: 80}
	s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner})
	if err != nil {
		t.Fatalf("establish under the default policy: %v", err)
	}
	if planner.calls != 2 || s.Plan.EndToEnd.Name != "ok" {
		t.Errorf("planned %d time(s) to level %s, want 2 and ok", planner.calls, s.Plan.EndToEnd.Name)
	}

	// The template cache is on and unobserved: a second session of the
	// same (service, binding) pair compiles nothing new.
	s2, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.templates == nil || rt.templates.Len() != 1 {
		t.Errorf("template cache = %v, want one resident template", rt.templates)
	}

	// No leasing: heartbeats are no-ops and no sweep ever reclaims a hold.
	clock.Advance(1e9)
	if err := s.Heartbeat(); err != nil {
		t.Errorf("heartbeat on an unleased runtime: %v", err)
	}
	for r, b := range brokers {
		if n := b.ExpireLeases(clock.Now()); n != 0 {
			t.Errorf("%s: sweep reclaimed %d unleased hold(s)", r, n)
		}
	}
	for _, sess := range []*Session{s, s2} {
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoTemplatesIsTheReferencePath pins the one non-nil value of
// Options.Templates with a special meaning: NoTemplates switches the
// fast lane off, and the qrg.Build path admits the same plan the
// compiled template does.
func TestNoTemplatesIsTheReferencePath(t *testing.T) {
	service, binding := pipelineService(t)
	spec := SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}

	ref, _, _ := twoHostWorld(t, Options{Templates: NoTemplates})
	if ref.templates != nil {
		t.Fatal("NoTemplates left a template cache in place")
	}
	fast, _, _ := twoHostWorld(t, Options{})
	sr, err := ref.Establish("X", spec)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := fast.Establish("X", spec)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Plan.PathLevels != sf.Plan.PathLevels || !reflect.DeepEqual(sr.Plan.Requirement(), sf.Plan.Requirement()) {
		t.Errorf("reference path planned %s %v, template path %s %v",
			sr.Plan.PathLevels, sr.Plan.Requirement(), sf.Plan.PathLevels, sf.Plan.Requirement())
	}
}

// TestRuntimeHasNoSetters keeps configuration in Options: a started
// runtime offers no method that could change it.
func TestRuntimeHasNoSetters(t *testing.T) {
	rt := reflect.TypeOf(&Runtime{})
	for i := 0; i < rt.NumMethod(); i++ {
		name := rt.Method(i).Name
		for _, prefix := range []string{"Set", "Instrument", "Enable"} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("(*Runtime).%s: configure through Options instead", name)
			}
		}
	}
}
