package qrg_test

import (
	"fmt"
	"strings"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/qrg/qrgtest"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// The tests here pin Compile + Instantiate to the reference builder of
// package qrgtest on fixed services; FuzzTemplateMatchesReference does
// the same on generated ones.

func lvl(name string, q float64) svc.Level {
	return svc.Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
}

// gpuChain is a two-component chain whose c2 declares an input level,
// "orphan", that c1 never produces, and whose translation from it needs
// a "gpu" the binding leaves unbound. No live node ever reaches that
// pair, so the service needs no gpu.
func gpuChain() (*svc.Service, svc.Binding, *broker.Snapshot) {
	c1 := &svc.Component{
		ID: "c1", In: []svc.Level{lvl("src", 0)},
		Out:       []svc.Level{lvl("hi", 1)},
		Translate: svc.TranslationTable{"src": {"hi": {"cpu": 10}}}.Func(),
		Resources: []string{"cpu"},
	}
	c2 := &svc.Component{
		ID: "c2", In: []svc.Level{lvl("in-hi", 1), lvl("orphan", 7)},
		Out: []svc.Level{lvl("best", 10)},
		Translate: svc.TranslationTable{
			"in-hi":  {"best": {"cpu": 10}},
			"orphan": {"best": {"gpu": 1}},
		}.Func(),
		Resources: []string{"cpu", "gpu"},
	}
	service := svc.MustService("gpu-chain", []*svc.Component{c1, c2},
		[]svc.Edge{{From: "c1", To: "c2"}}, []string{"best"})
	binding := svc.Binding{"c1": {"cpu": "h1/cpu"}, "c2": {"cpu": "h2/cpu"}}
	snap := &broker.Snapshot{
		Avail: qos.ResourceVector{"h1/cpu": 100, "h2/cpu": 100},
		Alpha: map[string]float64{"h1/cpu": 1, "h2/cpu": 1},
	}
	return service, binding, snap
}

// TestCompileBindsLazily pins the binding rule: a pair the binding
// cannot resolve fails an instantiation only when a live input node
// evaluates it, exactly where the reference builder fails.
func TestCompileBindsLazily(t *testing.T) {
	service, binding, snap := gpuChain()
	tpl, err := qrg.Compile(service, binding)
	if err != nil {
		t.Fatalf("compile refused an unreachable unbound pair: %v", err)
	}
	g, err := tpl.Instantiate(snap)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if len(g.Sinks) != 1 || g.NodeCount() != 4 {
		t.Fatalf("graph has %d nodes and sinks %v, want 4 nodes and one sink", g.NodeCount(), g.Sinks)
	}

	// Make the orphan level reachable: c1 now also produces it, and the
	// unbound gpu pair is evaluated from a live node.
	c1 := service.Components["c1"]
	c1.Out = append(c1.Out, lvl("lo", 7))
	c1.Translate = svc.TranslationTable{"src": {"hi": {"cpu": 10}, "lo": {"cpu": 5}}}.Func()
	if _, err := qrgtest.ReferenceBuild(service, binding, snap, qrg.BuildOptions{}); err == nil {
		t.Fatal("reference builder accepted a live unbound pair")
	}
	tpl, err = qrg.Compile(service, binding)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := tpl.Instantiate(snap); err == nil || !strings.Contains(err.Error(), `"gpu"`) {
		t.Fatalf("instantiate error = %v, want the gpu binding error", err)
	}
	// Drained, the live node reaching the pair is pruned and the error
	// goes with it, as in the reference builder.
	drained := &broker.Snapshot{Avail: qos.ResourceVector{}, Alpha: map[string]float64{}}
	if _, err := qrgtest.ReferenceBuild(service, binding, drained, qrg.BuildOptions{}); err != nil {
		t.Fatalf("reference builder on drained snapshot: %v", err)
	}
	if _, err := tpl.Instantiate(drained); err != nil {
		t.Fatalf("instantiate on drained snapshot: %v", err)
	}
}

// TestTemplateMatchesBuildOnWorkloads pins the template to the
// reference builder on every fixture (the video chain, the figure-6 DAG,
// a synthetic chain and the gpu chain) under each contention function,
// across three instantiations on recycled buffers.
func TestTemplateMatchesBuildOnWorkloads(t *testing.T) {
	for i, fixture := range fixtures {
		service, binding, snap := fixture()
		tpl, err := qrg.Compile(service, binding)
		if err != nil {
			t.Fatalf("fixture %d: compile: %v", i, err)
		}
		for _, cname := range []string{"ratio", "headroom", "log"} {
			cf, ok := qrg.ContentionByName(cname)
			if !ok {
				t.Fatalf("unknown contention %q", cname)
			}
			label := fmt.Sprintf("fixture %d/%s", i, cname)
			opts := qrg.BuildOptions{Contention: cf}
			want, err := qrgtest.ReferenceBuild(service, binding, snap, opts)
			if err != nil {
				t.Fatalf("%s: reference build: %v", label, err)
			}
			for round := 0; round < 3; round++ {
				got, err := tpl.InstantiateWithOptions(snap, opts)
				if err != nil {
					t.Fatalf("%s: instantiate: %v", label, err)
				}
				requireSameGraph(t, label, want, got)
				tpl.Recycle(got)
			}
		}
	}
}

// TestInstantiateAllocsRegression is the allocation guard: instantiating
// from a compiled template must allocate at least 5x less than the
// reference builder, and the template's weight evaluation
// (pre-sorted entries, shared Req maps, pooled scratch) must stay in
// the single-digit range for the video chain.
func TestInstantiateAllocsRegression(t *testing.T) {
	service := workload.VideoService()
	binding := workload.VideoBinding()
	snap := workload.VideoSnapshot()
	tpl, err := qrg.Compile(service, binding)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools before measuring steady state.
	for i := 0; i < 4; i++ {
		g, err := tpl.Instantiate(snap)
		if err != nil {
			t.Fatal(err)
		}
		tpl.Recycle(g)
	}
	instAllocs := testing.AllocsPerRun(200, func() {
		g, err := tpl.Instantiate(snap)
		if err != nil {
			t.Fatal(err)
		}
		tpl.Recycle(g)
	})
	buildAllocs := testing.AllocsPerRun(200, func() {
		if _, err := qrgtest.ReferenceBuild(service, binding, snap, qrg.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: instantiate %.1f, reference build %.1f", instAllocs, buildAllocs)
	if instAllocs*5 > buildAllocs {
		t.Fatalf("instantiate allocates %.1f/op vs reference build %.1f/op; want >= 5x fewer", instAllocs, buildAllocs)
	}
	// The race detector randomizes sync.Pool reuse, so the absolute
	// steady-state bound only holds on uninstrumented builds.
	if !qrg.RaceEnabled && instAllocs > 8 {
		t.Fatalf("instantiate allocates %.1f/op at steady state, want single digits", instAllocs)
	}
}
