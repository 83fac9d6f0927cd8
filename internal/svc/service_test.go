package svc

import (
	"strings"
	"testing"

	"qosres/internal/qos"
)

func lvl(name string, q float64) Level {
	return Level{Name: name, Vector: qos.MustVector(qos.P("q", q))}
}

func simpleComponent(id ComponentID, in, out []Level, table TranslationTable) *Component {
	return &Component{ID: id, In: in, Out: out, Translate: table.Func(), Resources: []string{"r"}}
}

// chain3 builds a valid 3-component chain a->b->c.
func chain3(t *testing.T) *Service {
	t.Helper()
	a := simpleComponent("a",
		[]Level{lvl("A0", 0)},
		[]Level{lvl("A1", 1), lvl("A2", 2)},
		TranslationTable{"A0": {"A1": {"r": 1}, "A2": {"r": 2}}})
	b := simpleComponent("b",
		[]Level{lvl("B1", 1), lvl("B2", 2)},
		[]Level{lvl("B3", 3)},
		TranslationTable{"B1": {"B3": {"r": 3}}, "B2": {"B3": {"r": 1}}})
	c := simpleComponent("c",
		[]Level{lvl("C3", 3)},
		[]Level{lvl("C4", 4), lvl("C5", 5)},
		TranslationTable{"C3": {"C4": {"r": 1}, "C5": {"r": 2}}})
	s, err := NewService("chain", []*Component{a, b, c},
		[]Edge{{From: "a", To: "b"}, {From: "b", To: "c"}},
		[]string{"C5", "C4"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChainServiceValid(t *testing.T) {
	s := chain3(t)
	if !s.IsChain() {
		t.Fatal("expected chain")
	}
	order, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("chain order = %v", order)
	}
	src, err := s.Source()
	if err != nil || src.ID != "a" {
		t.Fatalf("source = %v, %v", src, err)
	}
	sink, err := s.Sink()
	if err != nil || sink.ID != "c" {
		t.Fatalf("sink = %v, %v", sink, err)
	}
}

func TestRankOf(t *testing.T) {
	s := chain3(t)
	if s.RankOf("C5") != 2 || s.RankOf("C4") != 1 {
		t.Fatalf("ranks = %d, %d", s.RankOf("C5"), s.RankOf("C4"))
	}
	if s.RankOf("nope") != 0 {
		t.Fatal("unknown level must rank 0")
	}
}

func TestComponentLevelLookups(t *testing.T) {
	s := chain3(t)
	a := s.Components["a"]
	if _, ok := a.InLevel("A0"); !ok {
		t.Fatal("InLevel(A0) missing")
	}
	if _, ok := a.OutLevel("A2"); !ok {
		t.Fatal("OutLevel(A2) missing")
	}
	if _, ok := a.OutLevel("A0"); ok {
		t.Fatal("OutLevel(A0) should miss")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	b := simpleComponent("b", []Level{lvl("B1", 1)}, []Level{lvl("B2", 2)},
		TranslationTable{"B1": {"B2": {"r": 1}}})
	_, err := NewService("cyc", []*Component{a, b},
		[]Edge{{From: "a", To: "b"}, {From: "b", To: "a"}}, []string{"B2"})
	if err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	_, err := NewService("self", []*Component{a}, []Edge{{From: "a", To: "a"}}, []string{"A1"})
	if err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsUnknownEdgeEndpoint(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	_, err := NewService("bad", []*Component{a}, []Edge{{From: "a", To: "ghost"}}, []string{"A1"})
	if err == nil {
		t.Fatal("expected unknown-component error")
	}
}

func TestValidateRejectsDuplicateEdge(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	b := simpleComponent("b", []Level{lvl("B1", 1)}, []Level{lvl("B2", 2)},
		TranslationTable{"B1": {"B2": {"r": 1}}})
	_, err := NewService("dup", []*Component{a, b},
		[]Edge{{From: "a", To: "b"}, {From: "a", To: "b"}}, []string{"B2"})
	if err == nil || !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsMultiSourceOrSink(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	b := simpleComponent("b", []Level{lvl("B0", 0)}, []Level{lvl("B1", 1)},
		TranslationTable{"B0": {"B1": {"r": 1}}})
	if _, err := NewService("two", []*Component{a, b}, nil, []string{"A1"}); err == nil {
		t.Fatal("expected multiple source/sink rejection")
	}
}

func TestValidateRejectsBadRanking(t *testing.T) {
	mk := func(ranking []string) error {
		a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1), lvl("A2", 2)},
			TranslationTable{"A0": {"A1": {"r": 1}, "A2": {"r": 2}}})
		_, err := NewService("r", []*Component{a}, nil, ranking)
		return err
	}
	if err := mk([]string{"A1"}); err == nil {
		t.Fatal("short ranking accepted")
	}
	if err := mk([]string{"A1", "A1"}); err == nil {
		t.Fatal("repeated ranking accepted")
	}
	if err := mk([]string{"A1", "ghost"}); err == nil {
		t.Fatal("unknown level in ranking accepted")
	}
	if err := mk([]string{"A2", "A1"}); err != nil {
		t.Fatalf("valid ranking rejected: %v", err)
	}
}

func TestValidateRejectsMultiLevelSourceInput(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0), lvl("A9", 9)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	if _, err := NewService("src", []*Component{a}, nil, []string{"A1"}); err == nil {
		t.Fatal("source with two input levels accepted")
	}
}

func TestValidateRejectsUndeclaredResource(t *testing.T) {
	a := &Component{
		ID: "a", In: []Level{lvl("A0", 0)}, Out: []Level{lvl("A1", 1)},
		Translate: TranslationTable{"A0": {"A1": {"mystery": 1}}}.Func(),
		Resources: []string{"r"},
	}
	if _, err := NewService("un", []*Component{a}, nil, []string{"A1"}); err == nil {
		t.Fatal("undeclared resource accepted")
	}
}

func TestValidateRejectsNegativeRequirement(t *testing.T) {
	a := &Component{
		ID: "a", In: []Level{lvl("A0", 0)}, Out: []Level{lvl("A1", 1)},
		Translate: TranslationTable{"A0": {"A1": {"r": -1}}}.Func(),
		Resources: []string{"r"},
	}
	if _, err := NewService("neg", []*Component{a}, nil, []string{"A1"}); err == nil {
		t.Fatal("negative requirement accepted")
	}
}

func TestValidateRejectsComponentDefects(t *testing.T) {
	base := func() *Component {
		return simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
			TranslationTable{"A0": {"A1": {"r": 1}}})
	}
	cases := map[string]func(*Component){
		"empty id":       func(c *Component) { c.ID = "" },
		"no inputs":      func(c *Component) { c.In = nil },
		"no outputs":     func(c *Component) { c.Out = nil },
		"nil translate":  func(c *Component) { c.Translate = nil },
		"dup in level":   func(c *Component) { c.In = append(c.In, c.In[0]) },
		"dup out level":  func(c *Component) { c.Out = append(c.Out, c.Out[0]) },
		"empty level":    func(c *Component) { c.In = []Level{{Name: "", Vector: qos.Vector{}}} },
		"dup resource":   func(c *Component) { c.Resources = []string{"r", "r"} },
		"empty resource": func(c *Component) { c.Resources = []string{""} },
	}
	for name, mutate := range cases {
		c := base()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestDAGFanInFanOut(t *testing.T) {
	a := simpleComponent("a", []Level{lvl("A0", 0)}, []Level{lvl("A1", 1)},
		TranslationTable{"A0": {"A1": {"r": 1}}})
	b := simpleComponent("b", []Level{lvl("B1", 1)}, []Level{lvl("B2", 2)},
		TranslationTable{"B1": {"B2": {"r": 1}}})
	c := simpleComponent("c", []Level{lvl("C1", 1)}, []Level{lvl("C2", 9)},
		TranslationTable{"C1": {"C2": {"r": 1}}})
	dIn := Level{Name: "D", Vector: qos.ConcatAll([]string{"b", "c"},
		[]qos.Vector{qos.MustVector(qos.P("q", 2)), qos.MustVector(qos.P("q", 9))})}
	d := simpleComponent("d", []Level{dIn}, []Level{lvl("D1", 10)},
		TranslationTable{"D": {"D1": {"r": 1}}})
	// a has equal vectors for b and c inputs? a.Out A1 q=1; b.In B1 q=1; c.In C1 q=1.
	s, err := NewService("dag", []*Component{a, b, c, d}, []Edge{
		{From: "a", To: "b"}, {From: "a", To: "c"},
		{From: "b", To: "d"}, {From: "c", To: "d"},
	}, []string{"D1"})
	if err != nil {
		t.Fatal(err)
	}
	if s.IsChain() {
		t.Fatal("DAG misdetected as chain")
	}
	if !s.FanOut("a") || s.FanOut("b") {
		t.Fatal("fan-out detection wrong")
	}
	if !s.FanIn("d") || s.FanIn("b") {
		t.Fatal("fan-in detection wrong")
	}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[ComponentID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range s.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo order violates edge %s->%s: %v", e.From, e.To, order)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	s := chain3(t)
	first, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := s.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("order changed: %v vs %v", first, again)
			}
		}
	}
}

func TestBindingBind(t *testing.T) {
	b := Binding{"a": {"cpu": "cpu@h1", "net": "link:L1"}}
	out, err := b.Bind("a", qos.ResourceVector{"cpu": 2, "net": 3})
	if err != nil {
		t.Fatal(err)
	}
	if out["cpu@h1"] != 2 || out["link:L1"] != 3 {
		t.Fatalf("bound = %v", out)
	}
}

func TestBindingBindAccumulates(t *testing.T) {
	b := Binding{"a": {"cpu": "shared", "gpu": "shared"}}
	out, err := b.Bind("a", qos.ResourceVector{"cpu": 2, "gpu": 3})
	if err != nil {
		t.Fatal(err)
	}
	if out["shared"] != 5 {
		t.Fatalf("accumulated = %v", out["shared"])
	}
}

func TestBindingBindMissing(t *testing.T) {
	b := Binding{"a": {"cpu": "cpu@h1"}}
	if _, err := b.Bind("a", qos.ResourceVector{"net": 1}); err == nil {
		t.Fatal("unbound resource accepted")
	}
	if _, err := b.Bind("ghost", qos.ResourceVector{"net": 1}); err == nil {
		t.Fatal("unbound component accepted")
	}
}

func TestTranslationTableFuncClones(t *testing.T) {
	table := TranslationTable{"A0": {"A1": {"r": 1}}}
	f := table.Func()
	req, ok := f(lvl("A0", 0), lvl("A1", 1))
	if !ok {
		t.Fatal("pair missing")
	}
	req["r"] = 99
	again, _ := f(lvl("A0", 0), lvl("A1", 1))
	if again["r"] != 1 {
		t.Fatal("table mutated through returned requirement")
	}
	if _, ok := f(lvl("A0", 0), lvl("ghost", 9)); ok {
		t.Fatal("unknown pair should be unsupported")
	}
	if _, ok := f(lvl("ghost", 9), lvl("A1", 1)); ok {
		t.Fatal("unknown input should be unsupported")
	}
}

func TestTranslationTableScaleAndPairs(t *testing.T) {
	table := TranslationTable{"A0": {"A1": {"r": 2}, "A2": {"r": 4}}}
	scaled := table.Scale(2.5)
	if scaled["A0"]["A1"]["r"] != 5 || scaled["A0"]["A2"]["r"] != 10 {
		t.Fatalf("scaled = %v", scaled)
	}
	if table["A0"]["A1"]["r"] != 2 {
		t.Fatal("Scale mutated the original table")
	}
	pairs := table.Pairs()
	if len(pairs) != 2 || pairs[0] != [2]string{"A0", "A1"} || pairs[1] != [2]string{"A0", "A2"} {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestSuccsPreds(t *testing.T) {
	s := chain3(t)
	if got := s.Succs("a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Succs(a) = %v", got)
	}
	if got := s.Preds("c"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Preds(c) = %v", got)
	}
	if got := s.Succs("c"); got != nil {
		t.Fatalf("Succs(c) = %v", got)
	}
	ids := s.ComponentIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("ComponentIDs = %v", ids)
	}
}

func TestMustServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustService("bad", nil, nil, nil)
}
