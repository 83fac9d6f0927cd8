package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g", got)
	}
	if again := r.Counter("reqs_total", "other help"); again != c {
		t.Fatal("re-registration must return the same counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Set(2.5)
	if got := g.value(); got != 2.5 {
		t.Fatalf("gauge = %g", got)
	}
}

func TestLabeledChildrenAreDistinct(t *testing.T) {
	r := New()
	a := r.Counter("evs_total", "", "kind", "a")
	b := r.Counter("evs_total", "", "kind", "b")
	if a == b {
		t.Fatal("different labels must yield different children")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label children must not share state")
	}
	// Label order must not matter.
	x := r.Gauge("multi", "", "b", "2", "a", "1")
	y := r.Gauge("multi", "", "a", "1", "b", "2")
	if x != y {
		t.Fatal("label order must not create distinct children")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as gauge after counter must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	for v := 0.5; v <= 8; v += 0.5 {
		h.Observe(v)
	}
	h.Observe(100) // overflow bucket
	if h.Count() != 17 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantile interpolation stays within the data range and is
	// monotone in q.
	last := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone: q=%g gave %g < %g", q, v, last)
		}
		last = v
	}
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 8 {
		t.Fatalf("p50 = %g out of data range", p50)
	}
	// Overflow observations clamp to the largest finite bound.
	if p100 := h.Quantile(1); p100 != 8 {
		t.Fatalf("q=1 = %g, want clamp to 8", p100)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := New()
	h := r.Histogram("u", "", LinearBuckets(0.1, 0.1, 10))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 0.02 {
			t.Errorf("q=%g: got %g, want ~%g", tc.q, got, tc.want)
		}
	}
}

func TestNopRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nop registry reports enabled")
	}
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", stageBuckets())
	c.Inc()
	g.Set(3)
	h.Observe(1)
	BeginStage(h, ActiveSpan{}).End(nil, "")
	if c.Value() != 0 || g.value() != 0 || h.Count() != 0 {
		t.Fatal("nop metrics recorded state")
	}
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nop exposition wrote %q, err %v", sb.String(), err)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nop snapshot not empty")
	}
}

// TestNopHotPathNoAllocs is the acceptance criterion that disabled
// instrumentation adds no allocations to the planning hot path.
func TestNopHotPathNoAllocs(t *testing.T) {
	var nop *Registry
	st := NewPlanStages(nop)
	c := nop.Counter("evs", "")
	g := nop.Gauge("g", "")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := BeginStage(st.Plan, ActiveSpan{})
		c.Inc()
		g.Set(1)
		st.Snapshot.Observe(2)
		sp.End(nil, "")
	})
	if allocs != 0 {
		t.Fatalf("nop hot path allocates %.1f per op", allocs)
	}
}

// TestRegistryConcurrentStress exercises get-or-create plus all metric
// mutations and readers from many goroutines; run under -race.
func TestRegistryConcurrentStress(t *testing.T) {
	r := New()
	kinds := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := kinds[i%len(kinds)]
				r.Counter("evs_total", "events", "kind", k).Inc()
				r.Gauge("depth", "").Set(float64(g))
				r.Histogram("lat", "", stageBuckets(), "stage", k).Observe(float64(i) * 1e-6)
				if i%50 == 0 {
					var sb strings.Builder
					_ = r.writePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, k := range kinds {
		total += r.Counter("evs_total", "", "kind", k).Value()
	}
	if total != 8*500 {
		t.Fatalf("counter lost updates: %g", total)
	}
	if g := r.Gauge("depth", "").value(); g < 0 || g > 7 || g != math.Trunc(g) {
		t.Fatalf("gauge holds %g, not one of the values set", g)
	}
	var hist uint64
	for _, k := range kinds {
		hist += r.Histogram("lat", "", nil, "stage", k).Count()
	}
	if hist != 8*500 {
		t.Fatalf("histogram lost observations: %d", hist)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := expBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("exp = %v", exp)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	for i, want := range []float64{0, 5, 10} {
		if lin[i] != want {
			t.Fatalf("lin = %v", lin)
		}
	}
}

func BenchmarkNopSpan(b *testing.B) {
	var nop *Registry
	st := NewPlanStages(nop)
	c := nop.Counter("evs", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := BeginStage(st.Plan, ActiveSpan{})
		c.Inc()
		sp.End(nil, "")
	}
}

func BenchmarkLiveSpan(b *testing.B) {
	st := NewPlanStages(New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BeginStage(st.Plan, ActiveSpan{}).End(nil, "")
	}
}

func BenchmarkCounterParallel(b *testing.B) {
	c := New().Counter("evs", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
