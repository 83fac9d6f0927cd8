package qrg

import (
	"math"
	"testing"
	"testing/quick"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/svc"
)

func TestContentionByName(t *testing.T) {
	for _, name := range []string{"", "ratio", "headroom", "log"} {
		f, ok := ContentionByName(name)
		if !ok || f == nil {
			t.Errorf("ContentionByName(%q) failed", name)
		}
	}
	if _, ok := ContentionByName("nonsense"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestContentionFunctionsMonotone(t *testing.T) {
	// Every ψ definition must grow with the requirement and shrink with
	// availability (the admissibility property of footnote 2).
	funcs := map[string]ContentionFunc{
		"ratio": RatioContention, "headroom": HeadroomContention, "log": LogContention,
	}
	check := func(req1, req2, avail uint8) bool {
		r1 := 1 + float64(req1%50)
		r2 := r1 + 1 + float64(req2%20)
		a := r2 + 1 + float64(avail%100)
		for _, f := range funcs {
			if !(f(r1, a) < f(r2, a)) {
				return false
			}
			if !(f(r1, a) > f(r1, a+10)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogContentionSaturates(t *testing.T) {
	if !math.IsInf(LogContention(10, 10), 1) {
		t.Fatal("full reservation must be infinitely contended under log")
	}
	if got := LogContention(0, 10); got != 0 {
		t.Fatalf("zero requirement log contention = %v", got)
	}
}

func TestLogContentionIsMonotoneTransformOfRatio(t *testing.T) {
	// -log1p(-r) is strictly increasing in r = req/avail, so the log
	// index must order any two feasible pairs exactly like the ratio —
	// the reason BenchmarkAblationContention finds identical plans.
	check := func(a1, b1, a2, b2 uint8) bool {
		req1, av1 := 1+float64(a1%80), 100.0
		req2, av2 := 1+float64(a2%80), 50+float64(b2%100)
		if req2 > av2 {
			return true
		}
		_ = b1
		ratioOrder := RatioContention(req1, av1) < RatioContention(req2, av2)
		logOrder := LogContention(req1, av1) < LogContention(req2, av2)
		eq := RatioContention(req1, av1) == RatioContention(req2, av2)
		return eq || ratioOrder == logOrder
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadroomReordersBottlenecks(t *testing.T) {
	// The property that makes headroom a genuine ablation: two resources
	// with equal ratios but different absolute headroom are ordered
	// differently.
	// ratio: 10/100 == 1/10; headroom: 10/(1+90) < 1/(1+9)? 0.109 vs 0.1.
	rA := RatioContention(10, 100)
	rB := RatioContention(1, 10)
	if rA != rB {
		t.Fatalf("setup: ratios %v vs %v must tie", rA, rB)
	}
	hA := HeadroomContention(10, 100)
	hB := HeadroomContention(1, 10)
	if hA == hB {
		t.Fatal("headroom should distinguish the pair the ratio ties")
	}
}

func TestBuildWithOptionsAppliesContention(t *testing.T) {
	g1, g2 := buildContentionPair(t)
	// Same structure, different weights.
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Fatal("contention choice changed graph structure")
	}
	var differ bool
	for i := range g1.Edges {
		if g1.Edges[i].Kind != Translation {
			continue
		}
		if g1.Edges[i].Weight != g2.Edges[i].Weight {
			differ = true
		}
	}
	if !differ {
		t.Fatal("headroom weights identical to ratio weights")
	}
}

func buildContentionPair(t *testing.T) (*Graph, *Graph) {
	t.Helper()
	a := &svc.Component{
		ID: "a", In: []svc.Level{lvl("A0", 0)},
		Out: []svc.Level{lvl("hi", 1), lvl("lo", 2)},
		Translate: svc.TranslationTable{
			"A0": {"hi": {"r": 40}, "lo": {"r": 10}},
		}.Func(),
		Resources: []string{"r"},
	}
	service := svc.MustService("s", []*svc.Component{a}, nil, []string{"hi", "lo"})
	binding := svc.Binding{"a": {"r": "ra"}}
	snap := &broker.Snapshot{Avail: qos.ResourceVector{"ra": 100}, Alpha: map[string]float64{"ra": 1}}
	tpl, err := Compile(service, binding)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := tpl.Instantiate(snap)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tpl.InstantiateWithOptions(snap, BuildOptions{Contention: HeadroomContention})
	if err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func TestNodeEdgeKindStrings(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" {
		t.Fatal("NodeKind strings wrong")
	}
	if Translation.String() != "translation" || Equivalence.String() != "equivalence" {
		t.Fatal("EdgeKind strings wrong")
	}
}
