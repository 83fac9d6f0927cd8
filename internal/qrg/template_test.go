package qrg

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// fanInService builds a source feeding preds parallel components of
// levels output levels each, all joined by one fan-in sink.
func fanInService(t *testing.T, preds, levels int) (*svc.Service, svc.Binding) {
	t.Helper()
	src := &svc.Component{
		ID: "src", In: []svc.Level{lvl("raw", 0)}, Out: []svc.Level{lvl("s", 0)},
		Translate: svc.TranslationTable{"raw": {"s": {"r": 1}}}.Func(), Resources: []string{"r"},
	}
	comps := []*svc.Component{src}
	var edges []svc.Edge
	binding := svc.Binding{"src": {"r": "r"}, "sink": {"r": "r"}}
	var labels []string
	var vectors []qos.Vector
	for p := 0; p < preds; p++ {
		id := svc.ComponentID(fmt.Sprintf("p%02d", p))
		out := make([]svc.Level, levels)
		row := map[string]qos.ResourceVector{}
		for j := range out {
			out[j] = lvl(fmt.Sprintf("L%d", j), float64(j))
			row[out[j].Name] = qos.ResourceVector{"r": 1}
		}
		comps = append(comps, &svc.Component{
			ID: id, In: []svc.Level{lvl("s", 0)}, Out: out,
			Translate: svc.TranslationTable{"s": row}.Func(), Resources: []string{"r"},
		})
		edges = append(edges, svc.Edge{From: "src", To: id}, svc.Edge{From: id, To: "sink"})
		binding[id] = map[string]string{"r": "r"}
		labels = append(labels, string(id))
		vectors = append(vectors, out[0].Vector)
	}
	joined := svc.Level{Name: "all-L0", Vector: qos.ConcatAll(labels, vectors)}
	comps = append(comps, &svc.Component{
		ID: "sink", In: []svc.Level{joined}, Out: []svc.Level{lvl("out", 0)},
		Translate: svc.TranslationTable{"all-L0": {"out": {"r": 1}}}.Func(), Resources: []string{"r"},
	})
	return svc.MustService("wide", comps, edges, []string{"out"}), binding
}

// TestCompileRefusesWideFanIn pins the fan-in bound: a fan-in whose
// upstream output levels combine into more than maxFanInCells cells is
// refused before its table is allocated — including a product that
// overflows int — while one at the bound compiles and plans.
func TestCompileRefusesWideFanIn(t *testing.T) {
	for _, tc := range []struct{ preds, levels int }{{5, 16}, {64, 2}} {
		service, binding := fanInService(t, tc.preds, tc.levels)
		var err error
		took := time.Hour
		for i := 0; i < 3; i++ { // best of three: a refusal is cheap, a stall is not
			start := time.Now()
			_, err = Compile(service, binding)
			took = min(took, time.Since(start))
		}
		if err == nil || !strings.Contains(err.Error(), "wide") || !strings.Contains(err.Error(), "sink") {
			t.Fatalf("%d×%d fan-in: err = %v, want a refusal naming the service and component", tc.preds, tc.levels, err)
		}
		if !raceEnabled && took > time.Millisecond {
			t.Fatalf("%d×%d fan-in refused after %v, want under 1ms", tc.preds, tc.levels, took)
		}
	}
	service, binding := fanInService(t, 3, 16) // 4,096 cells
	tpl, err := Compile(service, binding)
	if err != nil {
		t.Fatalf("fan-in at the bound: %v", err)
	}
	snap := &broker.Snapshot{Avail: qos.ResourceVector{"r": 100}, Alpha: map[string]float64{"r": 1}}
	g, err := tpl.Instantiate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sinks) != 1 {
		t.Fatalf("sinks = %v, want the one joined level", g.Sinks)
	}
}

// TestTemplateCacheCounters checks hit/miss accounting and that
// structurally equal bindings rebuilt per session share one template.
func TestTemplateCacheCounters(t *testing.T) {
	reg := obs.New()
	cache := NewTemplateCache(reg)
	service := workload.VideoService()

	tpl1, err := cache.Get(service, workload.VideoBinding())
	if err != nil {
		t.Fatal(err)
	}
	// A freshly built but identical binding map must hit.
	tpl2, err := cache.Get(service, workload.VideoBinding())
	if err != nil {
		t.Fatal(err)
	}
	if tpl1 != tpl2 {
		t.Fatalf("identical (service, binding) pairs got distinct templates")
	}
	// A different placement must compile its own template.
	other := workload.VideoBinding()
	for cid := range other {
		m := map[string]string{}
		for k, v := range other[cid] {
			m[k] = v + "-alt"
		}
		other[cid] = m
	}
	tpl3, err := cache.Get(service, other)
	if err != nil {
		t.Fatal(err)
	}
	if tpl3 == tpl1 {
		t.Fatalf("distinct bindings shared a template")
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache holds %d templates, want 2", n)
	}

	hits := reg.Counter(obs.MetricTemplateHits, "").Value()
	misses := reg.Counter(obs.MetricTemplateMisses, "").Value()
	cached := reg.Gauge(obs.MetricTemplatesCached, "").Value()
	if hits != 1 || misses != 2 || cached != 2 {
		t.Fatalf("counters hits=%v misses=%v cached=%v, want 1/2/2", hits, misses, cached)
	}
}

// TestPathLevels covers the strings.Builder rewrite on a non-trivial
// path.
func TestPathLevelsJoins(t *testing.T) {
	g, err := Build(workload.VideoService(), workload.VideoBinding(), workload.VideoSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, len(g.Nodes))
	want := ""
	for i := range g.Nodes {
		nodes[i] = i
		if i > 0 {
			want += "-"
		}
		want += g.Nodes[i].Level.Name
	}
	if got := g.PathLevels(nodes); got != want {
		t.Fatalf("PathLevels = %q, want %q", got, want)
	}
	if got := g.PathLevels(nil); got != "" {
		t.Fatalf("PathLevels(nil) = %q, want empty", got)
	}
}
