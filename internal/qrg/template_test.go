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
// upstream output levels combine into more than svc.MaxTableCells cells is
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

// wideComponent builds a chain src -> big whose big component declares
// in input and out output levels; src produces big's first input level
// from its own up output levels.
func wideComponent(t *testing.T, up, in, out int) (*svc.Service, svc.Binding) {
	t.Helper()
	levels := func(prefix string, n int) []svc.Level {
		ls := make([]svc.Level, n)
		for i := range ls {
			ls[i] = lvl(fmt.Sprintf("%s%d", prefix, i), float64(i))
		}
		return ls
	}
	// Only the first pair translates; Compile's bound applies before it
	// translates anything.
	req := qos.ResourceVector{"r": 1}
	first := func(in, out svc.Level) (qos.ResourceVector, bool) {
		return req, in.Name[1:] == "0" && out.Name[1:] == "0"
	}
	src := &svc.Component{ID: "src", In: []svc.Level{lvl("raw", 0)}, Out: levels("S", up), Translate: first, Resources: []string{"r"}}
	big := &svc.Component{ID: "big", In: levels("I", in), Out: levels("O", out), Translate: first, Resources: []string{"r"}}
	binding := svc.Binding{"src": {"r": "r"}, "big": {"r": "r"}}
	ranking := make([]string, out)
	for i, l := range big.Out {
		ranking[i] = l.Name
	}
	// Built without validation, which refuses a component past the bound
	// on its own: Compile must still bound what it is handed.
	return &svc.Service{
		Name:            "wide",
		Components:      map[svc.ComponentID]*svc.Component{"src": src, "big": big},
		Edges:           []svc.Edge{{From: "src", To: "big"}},
		EndToEndRanking: ranking,
	}, binding
}

// TestCompileRefusesWideComponent pins the bound on the other two
// tables Compile fills: a component whose input × output levels exceed
// svc.MaxTableCells requirement cells, or whose single predecessor's output
// levels × its input levels exceed it in match scans, is refused before
// its table is allocated, while the synthetic chain at 64 levels —
// exactly 4,096 cells of each — compiles.
func TestCompileRefusesWideComponent(t *testing.T) {
	for _, tc := range []struct {
		up, in, out int
		what        string
	}{{1, 2000, 2000, "requirement cells"}, {100, 100, 1, "100 upstream output × 100 input"}} {
		service, binding := wideComponent(t, tc.up, tc.in, tc.out)
		var err error
		took := time.Hour
		for i := 0; i < 3; i++ { // best of three, as for the fan-in
			start := time.Now()
			_, err = Compile(service, binding)
			took = min(took, time.Since(start))
		}
		if err == nil || !strings.Contains(err.Error(), "service wide: component big") || !strings.Contains(err.Error(), tc.what) {
			t.Fatalf("%d→%d×%d: err = %v, want a refusal naming the service, the component and %q", tc.up, tc.in, tc.out, err, tc.what)
		}
		if !raceEnabled && took > time.Millisecond {
			t.Fatalf("%d→%d×%d refused after %v, want under 1ms", tc.up, tc.in, tc.out, took)
		}
	}
	service, binding, snap := workload.SyntheticChain(3, 64)
	tpl, err := Compile(service, binding)
	if err != nil {
		t.Fatalf("synthetic chain at 64 levels: %v", err)
	}
	if _, err := tpl.Instantiate(snap); err != nil {
		t.Fatal(err)
	}
}

// TestCompileRefusesUnboundService: a binding that names no resource
// for any of the service's components is refused at compile time,
// whether it is empty, binds only components the service lacks, or
// binds its components to nothing.
func TestCompileRefusesUnboundService(t *testing.T) {
	service := workload.VideoService()
	for name, binding := range map[string]svc.Binding{
		"empty":   {},
		"foreign": {"nobody": {"cpu": "cpu@H1"}},
		"blank":   {"cS": {}},
	} {
		if _, err := Compile(service, binding); err == nil || !strings.Contains(err.Error(), "binding names no resources") {
			t.Errorf("%s: err = %v, want a binding refusal", name, err)
		}
	}
}

// TestTemplateDerive: Derive computes once per key and keeps one value;
// another key derives again and replaces it.
func TestTemplateDerive(t *testing.T) {
	tpl, err := Compile(workload.VideoService(), workload.VideoBinding())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	derive := func(t *Template) any {
		calls++
		return len(t.Resources()) + calls
	}
	a, b := new(int), new(int)
	first := tpl.Derive(a, derive)
	if again := tpl.Derive(a, derive); again != first || calls != 1 {
		t.Fatalf("second Derive for one key = %v after %d derivations, want %v after 1", again, calls, first)
	}
	if other := tpl.Derive(b, derive); other == first || calls != 2 {
		t.Fatalf("Derive for another key = %v after %d derivations, want a new value after 2", other, calls)
	}
	if back := tpl.Derive(a, derive); back == first || calls != 3 {
		t.Fatalf("Derive back to the first key = %v after %d derivations, want a new value after 3", back, calls)
	}
}

// TestTemplateCacheKeepsRefusals pins that a refused pair answers from
// the cache: the second Get of the 5×16 fan-in returns the very error
// of the first, counts a hit, and allocates nothing — no more than a
// hit on a compiled template.
func TestTemplateCacheKeepsRefusals(t *testing.T) {
	reg := obs.New()
	cache := NewTemplateCache(reg)
	wide, wideBinding := fanInService(t, 5, 16)
	_, first := cache.Get(wide, wideBinding)
	if first == nil {
		t.Fatal("5×16 fan-in compiled")
	}
	tpl, again := cache.Get(wide, wideBinding)
	if tpl != nil || again != first {
		t.Fatalf("second Get = %v, %v; want nil and the first refusal %v", tpl, again, first)
	}
	hits := reg.Counter(obs.MetricTemplateHits, "").Value()
	misses := reg.Counter(obs.MetricTemplateMisses, "").Value()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%v misses=%v, want 1/1", hits, misses)
	}
	video, videoBinding := workload.VideoService(), workload.VideoBinding()
	if _, err := cache.Get(video, videoBinding); err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func(){
		"refusal": func() { _, _ = cache.Get(wide, wideBinding) },
		"hit":     func() { _, _ = cache.Get(video, videoBinding) },
	} {
		if allocs := testing.AllocsPerRun(100, get); allocs != 0 && !raceEnabled {
			t.Errorf("%s: %.0f allocations per Get, want 0", name, allocs)
		}
	}
}

// TestTemplateCacheHashCollision forces two bindings onto one key: the
// entry's own copy of the binding tells them apart, so the second pair
// compiles its own template instead of taking the first's.
func TestTemplateCacheHashCollision(t *testing.T) {
	cache := NewTemplateCache(nil)
	service := workload.VideoService()
	binding := workload.VideoBinding()
	tpl, err := cache.Get(service, binding)
	if err != nil {
		t.Fatal(err)
	}
	other := workload.VideoBinding()
	for cid := range other {
		for k, v := range other[cid] {
			other[cid][k] = v + "-alt"
		}
	}
	// File the first template under the other binding's key.
	cache.mu.Lock()
	el := cache.entries[templateKey{service: service, binding: bindingHash(binding)}]
	delete(cache.entries, el.Value.(*cacheEntry).key)
	key := templateKey{service: service, binding: bindingHash(other)}
	el.Value.(*cacheEntry).key = key
	cache.entries[key] = el
	cache.mu.Unlock()

	got, err := cache.Get(service, other)
	if err != nil {
		t.Fatal(err)
	}
	if got == tpl {
		t.Fatal("a colliding binding was served the other binding's template")
	}
	if again, _ := cache.Get(service, other); again != got || cache.Len() != 1 {
		t.Fatalf("the colliding pair did not take the slot: %d resident", cache.Len())
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
	cached := templatesCached(reg)
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
