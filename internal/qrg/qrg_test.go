package qrg

import (
	"math"
	"strings"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/svc"
)

func lvl(name string, q float64) svc.Level {
	return svc.Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
}

func TestBuildChainStructure(t *testing.T) {
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1), lvl("lo", 2)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"r": 40}, "lo": {"r": 10}},
		}.Func(),
		Resources: []string{"r"},
	}
	b := &svc.Component{
		ID: "b",
		In: []svc.Level{lvl("in-hi", 1), lvl("in-lo", 2)},
		Out: []svc.Level{
			lvl("best", 10), lvl("ok", 11),
		},
		Translate: svc.TranslationTable{
			"in-hi": {"best": {"r": 50}},
			"in-lo": {"best": {"r": 90}, "ok": {"r": 20}},
		}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a, b},
		[]svc.Edge{{From: "a", To: "b"}}, []string{"best", "ok"})
	binding := svc.Binding{
		"a": {"r": "ra"},
		"b": {"r": "rb"},
	}
	snap := &broker.Snapshot{
		Avail: qos.ResourceVector{"ra": 100, "rb": 100},
		Alpha: map[string]float64{"ra": 1, "rb": 0.9},
	}
	g, err := Build(service, binding, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: A0, hi, lo, in-hi, in-lo, best, ok = 7.
	if g.NodeCount() != 7 {
		t.Fatalf("nodes = %d, want 7", g.NodeCount())
	}
	// Edges: 2 translation (a), 2 equivalence, 3 translation (b) = 7.
	if g.EdgeCount() != 7 {
		t.Fatalf("edges = %d, want 7", g.EdgeCount())
	}
	if g.Source < 0 || g.Nodes[g.Source].Level.Name != "A0" {
		t.Fatalf("source = %v", g.Source)
	}
	if len(g.Sinks) != 2 {
		t.Fatalf("sinks = %d", len(g.Sinks))
	}
	best := g.Sinks[0]
	if g.Nodes[best.Node].Level.Name != "best" || best.Rank != 2 {
		t.Fatalf("best sink = %+v", best)
	}
	// Edge weights: a:hi = 0.4; b in-lo->best = 0.9 with alpha 0.9.
	var found bool
	for _, e := range g.Edges {
		if e.Kind != Translation {
			continue
		}
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		if from.Level.Name == "in-lo" && to.Level.Name == "best" {
			found = true
			if e.Weight != 0.9 || e.Bottleneck != "rb" || e.Alpha != 0.9 {
				t.Fatalf("edge = %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("in-lo->best edge missing")
	}
	// Node-ID order must be topological (the planners rely on it).
	for _, e := range g.Edges {
		if e.From >= e.To {
			t.Fatalf("edge %d -> %d violates topological node order", e.From, e.To)
		}
	}
	translations := 0
	for _, e := range g.Edges {
		if e.Kind == Translation {
			translations++
		}
	}
	if translations != 5 {
		t.Fatalf("translation edges = %d, want 5", translations)
	}
}

func TestBuildPrunesInfeasibleEdges(t *testing.T) {
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1), lvl("lo", 2)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"r": 400}, "lo": {"r": 10}},
		}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a}, nil, []string{"hi", "lo"})
	g, err := Build(service, svc.Binding{"a": {"r": "ra"}},
		&broker.Snapshot{Avail: qos.ResourceVector{"ra": 100}, Alpha: map[string]float64{"ra": 1}})
	if err != nil {
		t.Fatal(err)
	}
	// "hi" requires 400 > 100: its node must not exist.
	for _, n := range g.Nodes {
		if n.Level.Name == "hi" {
			t.Fatal("infeasible output level node created")
		}
	}
	if len(g.Sinks) != 1 || g.Sinks[0].Rank != 1 {
		t.Fatalf("sinks = %+v", g.Sinks)
	}
}

func TestBuildDeadEndUpstreamLevel(t *testing.T) {
	// Upstream "lo" level has no matching downstream input: it exists
	// as a node but is a dead end, and the graph still works via "hi".
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1), lvl("lo", 2)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"r": 10}, "lo": {"r": 5}},
		}.Func(),
		Resources: []string{"r"},
	}
	b := &svc.Component{
		ID: "b", In: []svc.Level{lvl("in-hi", 1)}, // no in-lo
		Out:       []svc.Level{lvl("best", 10)},
		Translate: svc.TranslationTable{"in-hi": {"best": {"r": 10}}}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a, b},
		[]svc.Edge{{From: "a", To: "b"}}, []string{"best"})
	g, err := Build(service, svc.Binding{"a": {"r": "ra"}, "b": {"r": "rb"}},
		&broker.Snapshot{Avail: qos.ResourceVector{"ra": 100, "rb": 100}, Alpha: map[string]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sinks) != 1 {
		t.Fatalf("sinks = %d", len(g.Sinks))
	}
}

func TestBuildBindingErrors(t *testing.T) {
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out:       []svc.Level{lvl("hi", 1)},
		Translate: svc.TranslationTable{"A0": {"hi": {"r": 10}}}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a}, nil, []string{"hi"})
	snap := &broker.Snapshot{Avail: qos.ResourceVector{"ra": 100}, Alpha: map[string]float64{}}
	if _, err := Build(service, svc.Binding{}, snap); err == nil {
		t.Fatal("missing binding accepted")
	}
	if _, err := Build(nil, svc.Binding{}, snap); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := Build(service, svc.Binding{"a": {"r": "ra"}}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestWeightBottleneckDeterministicOnTies(t *testing.T) {
	req := qos.ResourceVector{"b": 50, "a": 50}
	avail := qos.ResourceVector{"a": 100, "b": 100}
	for i := 0; i < 20; i++ {
		_, bott, ok := Weight(req, avail)
		if !ok || bott != "a" {
			t.Fatalf("bottleneck = %q (tie must resolve to first name)", bott)
		}
	}
}

func TestWeightZeroRequirementOnZeroAvail(t *testing.T) {
	psi, _, ok := Weight(qos.ResourceVector{"a": 0}, qos.ResourceVector{})
	if !ok || psi != 0 {
		t.Fatal("zero requirement against absent resource must be feasible")
	}
}

func TestPathLevels(t *testing.T) {
	g := &Graph{Nodes: []Node{
		{ID: 0, Level: svc.Level{Name: "Qa"}},
		{ID: 1, Level: svc.Level{Name: "Qb"}},
		{ID: 2, Level: svc.Level{Name: "Qc"}},
	}}
	if got := g.PathLevels([]int{0, 1, 2}); got != "Qa-Qb-Qc" {
		t.Fatalf("PathLevels = %q", got)
	}
	if got := g.PathLevels(nil); got != "" {
		t.Fatalf("empty path = %q", got)
	}
}

func TestBuildFanInCombinations(t *testing.T) {
	// source -> {b, c} -> d (fan-in): d's Qin nodes are combinations.
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)}, Out: []svc.Level{lvl("A1", 1)},
		Translate: svc.TranslationTable{"A0": {"A1": {"r": 1}}}.Func(),
		Resources: []string{"r"},
	}
	b := &svc.Component{
		ID: "b", In: []svc.Level{lvl("B", 1)}, Out: []svc.Level{lvl("B1", 5), lvl("B2", 6)},
		Translate: svc.TranslationTable{"B": {"B1": {"r": 1}, "B2": {"r": 2}}}.Func(),
		Resources: []string{"r"},
	}
	c := &svc.Component{
		ID: "c", In: []svc.Level{lvl("C", 1)}, Out: []svc.Level{lvl("C1", 7), lvl("C2", 8)},
		Translate: svc.TranslationTable{"C": {"C1": {"r": 1}, "C2": {"r": 2}}}.Func(),
		Resources: []string{"r"},
	}
	combo := func(name string, bq, cq float64) svc.Level {
		return svc.Level{Name: name, Vector: qos.ConcatAll([]string{"b", "c"},
			[]qos.Vector{qos.MustVector(qos.P("q", bq)), qos.MustVector(qos.P("q", cq))})}
	}
	d := &svc.Component{
		ID: "d",
		In: []svc.Level{
			combo("D11", 5, 7), combo("D12", 5, 8),
			combo("D21", 6, 7), combo("D22", 6, 8),
		},
		Out: []svc.Level{lvl("out", 99)},
		Translate: svc.TranslationTable{
			"D11": {"out": {"r": 1}},
			"D12": {"out": {"r": 2}},
			"D21": {"out": {"r": 3}},
			"D22": {"out": {"r": 4}},
		}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("fan", []*svc.Component{a, b, c, d}, []svc.Edge{
		{From: "a", To: "b"}, {From: "a", To: "c"},
		{From: "b", To: "d"}, {From: "c", To: "d"},
	}, []string{"out"})
	binding := svc.Binding{}
	avail := qos.ResourceVector{}
	for _, id := range []svc.ComponentID{"a", "b", "c", "d"} {
		binding[id] = map[string]string{"r": "r@" + string(id)}
		avail["r@"+string(id)] = 100
	}
	g, err := Build(service, binding, &broker.Snapshot{Avail: avail, Alpha: map[string]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	var combos int
	for _, n := range g.Nodes {
		if n.Comp == "d" && n.Kind == In {
			combos++
			if len(n.Parts) != 2 {
				t.Fatalf("combo node parts = %v", n.Parts)
			}
			// The parts must point at out nodes of b and c.
			for up, nodeID := range n.Parts {
				pn := g.Nodes[nodeID]
				if pn.Comp != up || pn.Kind != Out {
					t.Fatalf("part %s -> node %+v", up, pn)
				}
			}
		}
	}
	if combos != 4 {
		t.Fatalf("fan-in combinations = %d, want 4 (2x2)", combos)
	}
}

func TestDOTRendersStructure(t *testing.T) {
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"r": 40}},
		}.Func(),
		Resources: []string{"r"},
	}
	b := &svc.Component{
		ID: "b", In: []svc.Level{lvl("in-hi", 1)},
		Out:       []svc.Level{lvl("best", 10)},
		Translate: svc.TranslationTable{"in-hi": {"best": {"r": 50}}}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a, b},
		[]svc.Edge{{From: "a", To: "b"}}, []string{"best"})
	g, err := Build(service, svc.Binding{"a": {"r": "ra"}, "b": {"r": "rb"}},
		&broker.Snapshot{Avail: qos.ResourceVector{"ra": 100, "rb": 100}, Alpha: map[string]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{
		"digraph QRG", "cluster_0", "cluster_1",
		`label="a"`, `label="b"`,
		`label="A0"`, `label="best"`,
		"shape=diamond",      // source
		"shape=doublecircle", // sink
		`label="0.40"`,       // translation weight
		"style=dashed",       // equivalence edge
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces: parseable structure.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Fatal("unbalanced braces in DOT output")
	}
}

func TestWeightZeroRequirementZeroAvailability(t *testing.T) {
	// 0/0 must not reach the contention function: the term is skipped, so
	// the pair is feasible with Ψ contribution 0 — no NaN can leak into
	// the Dijkstra edge weights.
	psi, bott, ok := Weight(
		qos.ResourceVector{"drained": 0, "cpu": 10},
		qos.ResourceVector{"drained": 0, "cpu": 100})
	if !ok {
		t.Fatal("zero requirement against zero availability must be feasible")
	}
	if math.IsNaN(psi) || psi != 0.1 {
		t.Fatalf("psi = %v, want 0.1 from cpu alone", psi)
	}
	if bott != "cpu" {
		t.Fatalf("bottleneck = %q, want cpu (drained must not contribute)", bott)
	}
}

func TestWeightZeroRequirementAllContentionFuncs(t *testing.T) {
	// Every alternative contention definition shares the skip: none may
	// see the 0/0 pair.
	for _, name := range []string{"", "ratio", "headroom", "log"} {
		f, ok := ContentionByName(name)
		if !ok {
			t.Fatalf("unknown contention %q", name)
		}
		psi, _, ok := newBoundReq(qos.ResourceVector{"r": 0}).weight(qos.ResourceVector{"r": 0}, f)
		if !ok || psi != 0 || math.IsNaN(psi) {
			t.Fatalf("contention %q: psi = %v ok = %v, want 0/true", name, psi, ok)
		}
	}
}

func TestWeightPositiveRequirementZeroAvailabilityInfeasible(t *testing.T) {
	// The boundary next to the 0/0 case: any positive demand on a drained
	// resource stays a feasibility failure.
	_, bott, ok := Weight(qos.ResourceVector{"r": 1e-12}, qos.ResourceVector{"r": 0})
	if ok || bott != "r" {
		t.Fatalf("positive requirement on drained resource: ok = %v bottleneck = %q", ok, bott)
	}
}
