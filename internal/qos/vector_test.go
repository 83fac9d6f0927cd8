package qos

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewVectorRejectsDuplicates(t *testing.T) {
	if _, err := NewVector(P("a", 1), P("a", 2)); err == nil {
		t.Fatal("expected duplicate-parameter error")
	}
}

func TestNewVectorRejectsEmptyName(t *testing.T) {
	if _, err := NewVector(P("", 1)); err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestNewVectorRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewVector(P("a", bad)); err == nil {
			t.Fatalf("expected non-finite error for %v", bad)
		}
	}
}

func TestVectorGet(t *testing.T) {
	v := MustVector(P("rate", 30), P("size", 4))
	if got, ok := v.Get("rate"); !ok || got != 30 {
		t.Fatalf("Get(rate) = %v, %v", got, ok)
	}
	if _, ok := v.Get("missing"); ok {
		t.Fatal("Get(missing) should not be found")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
}

func TestVectorCompare(t *testing.T) {
	a := MustVector(P("rate", 30), P("size", 4))
	b := MustVector(P("rate", 25), P("size", 3))
	c := MustVector(P("rate", 25), P("size", 5))
	d := MustVector(P("size", 4), P("rate", 30)) // same params, different order

	cases := []struct {
		x, y Vector
		want Ordering
	}{
		{a, a, Equal},
		{a, d, Equal},
		{b, a, Less},
		{a, b, Greater},
		{a, c, Incomparable},
		{c, a, Incomparable},
	}
	for _, tc := range cases {
		got, err := tc.x.Compare(tc.y)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", tc.x, tc.y, err)
		}
		if got != tc.want {
			t.Errorf("Compare(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestVectorCompareMismatchedParams(t *testing.T) {
	a := MustVector(P("rate", 30))
	b := MustVector(P("size", 4))
	if _, err := a.Compare(b); err == nil {
		t.Fatal("expected error comparing different parameter sets")
	}
	if a.Leq(b) {
		t.Fatal("Leq over different parameter sets must be false")
	}
}

func TestVectorLeq(t *testing.T) {
	a := MustVector(P("rate", 25), P("size", 3))
	b := MustVector(P("rate", 30), P("size", 4))
	if !a.Leq(b) || !a.Leq(a) {
		t.Fatal("Leq reflexive/dominated cases failed")
	}
	if b.Leq(a) {
		t.Fatal("Leq should fail for dominating vector")
	}
}

func TestConcatAll(t *testing.T) {
	a := MustVector(P("q", 1))
	b := MustVector(P("q", 2))
	c := MustVector(P("q", 3))
	out := ConcatAll([]string{"c1", "c2", "c3"}, []Vector{a, b, c})
	for i, want := range []float64{1, 2, 3} {
		name := []string{"c1.q", "c2.q", "c3.q"}[i]
		if got, ok := out.Get(name); !ok || got != want {
			t.Fatalf("%s = %v, %v", name, got, ok)
		}
	}
	var equal = ConcatAll([]string{"c1", "c2", "c3"}, []Vector{a, b, c})
	if !out.Equal(equal) {
		t.Fatal("ConcatAll must be deterministic")
	}
}

func TestConcatAllMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConcatAll([]string{"a"}, nil)
}

func TestVectorString(t *testing.T) {
	v := MustVector(P("rate", 30), P("size", 4))
	s := v.String()
	if !strings.Contains(s, "rate=30") || !strings.Contains(s, "size=4") {
		t.Fatalf("String = %q", s)
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{
		Incomparable: "incomparable", Less: "less", Equal: "equal", Greater: "greater",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Ordering(42).String() == "" {
		t.Error("unknown ordering should still render")
	}
}

func TestResourceVectorBasics(t *testing.T) {
	r := NewResourceVector(map[string]float64{"cpu": 4, "net": 7})
	cl := r.Clone()
	cl["cpu"] = 99
	if r["cpu"] != 4 {
		t.Fatal("Clone must not alias")
	}
	s := r.Scale(2)
	if s["cpu"] != 8 || s["net"] != 14 {
		t.Fatalf("Scale = %v", s)
	}
	sum := r.Add(ResourceVector{"cpu": 1, "disk": 2})
	if sum["cpu"] != 5 || sum["net"] != 7 || sum["disk"] != 2 {
		t.Fatalf("Add = %v", sum)
	}
}

func TestResourceVectorLeq(t *testing.T) {
	req := ResourceVector{"cpu": 4, "net": 7}
	if !req.Leq(ResourceVector{"cpu": 4, "net": 8}) {
		t.Fatal("expected satisfiable")
	}
	if req.Leq(ResourceVector{"cpu": 4}) {
		t.Fatal("missing availability must fail")
	}
	if req.Leq(ResourceVector{"cpu": 3, "net": 8}) {
		t.Fatal("cpu shortfall must fail")
	}
}

func TestResourceVectorCompare(t *testing.T) {
	a := ResourceVector{"cpu": 4, "net": 7}
	b := ResourceVector{"cpu": 5, "net": 7}
	c := ResourceVector{"cpu": 3, "net": 9}
	if got, err := a.Compare(b); err != nil || got != Less {
		t.Fatalf("Compare = %v, %v", got, err)
	}
	if got, err := b.Compare(a); err != nil || got != Greater {
		t.Fatalf("Compare = %v, %v", got, err)
	}
	if got, err := a.Compare(a.Clone()); err != nil || got != Equal {
		t.Fatalf("Compare = %v, %v", got, err)
	}
	if got, err := a.Compare(c); err != nil || got != Incomparable {
		t.Fatalf("Compare = %v, %v", got, err)
	}
	if _, err := a.Compare(ResourceVector{"cpu": 1}); err == nil {
		t.Fatal("expected mismatched-set error")
	}
}

func TestResourceVectorValidate(t *testing.T) {
	if err := (ResourceVector{"cpu": 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ResourceVector{
		{"": 1},
		{"cpu": -1},
		{"cpu": math.NaN()},
		{"cpu": math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%v) should fail", bad)
		}
	}
}

func TestResourceVectorStringDeterministic(t *testing.T) {
	r := ResourceVector{"b": 2, "a": 1, "c": 3}
	want := "{a:1, b:2, c:3}"
	for i := 0; i < 10; i++ {
		if got := r.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// randomVector builds a vector over a fixed parameter set for property
// tests.
func randomVector(rng *rand.Rand) Vector {
	return MustVector(
		P("a", float64(rng.Intn(8))),
		P("b", float64(rng.Intn(8))),
		P("c", float64(rng.Intn(8))),
	)
}

func TestPropertyPartialOrderAntisymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vs []reflect.Value, rng *rand.Rand) {
		vs[0] = reflect.ValueOf(randomVector(rng))
		vs[1] = reflect.ValueOf(randomVector(rng))
	}}
	f := func(a, b Vector) bool {
		if a.Leq(b) && b.Leq(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPartialOrderTransitivity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vs []reflect.Value, rng *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(randomVector(rng))
		}
	}}
	f := func(a, b, c Vector) bool {
		if a.Leq(b) && b.Leq(c) {
			return a.Leq(c)
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareConsistentWithLeq(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vs []reflect.Value, rng *rand.Rand) {
		vs[0] = reflect.ValueOf(randomVector(rng))
		vs[1] = reflect.ValueOf(randomVector(rng))
	}}
	f := func(a, b Vector) bool {
		ord, err := a.Compare(b)
		if err != nil {
			return false
		}
		switch ord {
		case Less:
			return a.Leq(b) && !b.Leq(a)
		case Greater:
			return b.Leq(a) && !a.Leq(b)
		case Equal:
			return a.Leq(b) && b.Leq(a)
		case Incomparable:
			return !a.Leq(b) && !b.Leq(a)
		}
		return false
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScalePreservesLeq(t *testing.T) {
	f := func(cpu, net uint8, scale uint8) bool {
		r := ResourceVector{"cpu": float64(cpu), "net": float64(net)}
		s := r.Scale(float64(scale))
		big := r.Scale(float64(scale) + 1)
		return s.Leq(big)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
