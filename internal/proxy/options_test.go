package proxy

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/transport"
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
	if rt.stages.Establish != nil || rt.admit.Shed != nil || rt.faults.Repaired != nil ||
		rt.adapt.Upgrades != nil || rt.walMetrics.Appends != nil {
		t.Fatal("a runtime without a registry holds a recording metric")
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

// TestOptionsTakeOnlyARegistry keeps telemetry configuration to one
// registry and one trace recorder: no options struct on the runtime's
// path takes a pre-built metric set that callers must assemble from the
// registry themselves.
func TestOptionsTakeOnlyARegistry(t *testing.T) {
	allowed := map[reflect.Type]bool{
		reflect.TypeOf((*obs.Registry)(nil)):      true,
		reflect.TypeOf((*obs.TraceRecorder)(nil)): true,
	}
	obsPkg := reflect.TypeOf(obs.Registry{}).PkgPath()
	for _, opts := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(transport.Options{})} {
		for i := 0; i < opts.NumField(); i++ {
			f := opts.Field(i)
			base := f.Type
			for base.Kind() == reflect.Ptr || base.Kind() == reflect.Slice {
				base = base.Elem()
			}
			if base.PkgPath() == obsPkg && !allowed[f.Type] {
				t.Errorf("%s.%s has type %s; take *obs.Registry instead", opts, f.Name, f.Type)
			}
		}
	}
}

// TestEstablishTimesItself pins that the runtime, not its caller, times
// the establish stage: every Establish that reaches admission, admitted
// or refused, is one observation of the registry's establish histogram.
func TestEstablishTimesItself(t *testing.T) {
	reg := obs.New()
	rt, _, brokers := twoHostWorld(t, Options{Metrics: reg, AdmitPolicy: &AdmitPolicy{MaxRetries: 0}})
	service, binding := pipelineService(t)

	const admitted = 5
	for i := 0; i < admitted; i++ {
		s, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	planner := &stealPlanner{inner: core.Basic{}, target: brokers["net:X->Y"], amount: 80}
	if _, err := rt.Establish("X", SessionSpec{Service: service, Binding: binding, Planner: planner}); !errors.Is(err, broker.ErrInsufficient) {
		t.Fatalf("err = %v, want a commit-time refusal", err)
	}
	if got := obs.NewPlanStages(reg).Establish.Count(); got != admitted+1 {
		t.Errorf("establish stage observed %d time(s), want %d", got, admitted+1)
	}
}
