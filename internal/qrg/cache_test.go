package qrg

import (
	"fmt"
	"testing"

	"qosres/internal/obs"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// altBinding derives a structurally distinct placement of the video
// binding by suffixing every concrete resource.
func altBinding(n int) svc.Binding {
	b := workload.VideoBinding()
	for cid := range b {
		m := map[string]string{}
		for k, v := range b[cid] {
			m[k] = fmt.Sprintf("%s-alt%d", v, n)
		}
		b[cid] = m
	}
	return b
}

// TestTemplateCacheLRUEviction pins the cache bound: at most maxEntries
// templates stay resident, the least-recently-used one is evicted
// first, and every eviction is counted.
func TestTemplateCacheLRUEviction(t *testing.T) {
	reg := obs.New()
	cache := NewTemplateCacheSize(reg, 2)
	service := workload.VideoService()

	b1, b2, b3 := altBinding(1), altBinding(2), altBinding(3)
	tpl1, err := cache.Get(service, b1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(service, b2); err != nil {
		t.Fatal(err)
	}
	// Third insert overflows the bound: b1 is the LRU and must go.
	if _, err := cache.Get(service, b3); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache holds %d templates, want 2", n)
	}
	if got := reg.Counter(obs.MetricTemplateEvictions, "").Value(); got != 1 {
		t.Fatalf("evictions = %g, want 1", got)
	}
	if got := templatesCached(reg); got != 2 {
		t.Fatalf("cached gauge = %g, want 2", got)
	}

	// b2 is now the LRU; touching it promotes it, so the next overflow
	// evicts b3 instead.
	if _, err := cache.Get(service, b2); err != nil {
		t.Fatal(err)
	}
	tpl1b, err := cache.Get(service, b1) // recompiles (was evicted), evicts b3
	if err != nil {
		t.Fatal(err)
	}
	if tpl1b == tpl1 {
		t.Fatal("evicted template came back identical — it was never evicted")
	}
	if got := reg.Counter(obs.MetricTemplateEvictions, "").Value(); got != 2 {
		t.Fatalf("evictions = %g, want 2", got)
	}
	// b2 must have survived both evictions: getting it is a hit.
	hitsBefore := reg.Counter(obs.MetricTemplateHits, "").Value()
	if _, err := cache.Get(service, b2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricTemplateHits, "").Value(); got != hitsBefore+1 {
		t.Fatal("recently-used entry was evicted")
	}
}

// TestTemplateCacheUnbounded pins the 0 = unlimited contract.
func TestTemplateCacheUnbounded(t *testing.T) {
	reg := obs.New()
	cache := NewTemplateCacheSize(reg, 0)
	service := workload.VideoService()
	for i := 0; i < 50; i++ {
		if _, err := cache.Get(service, altBinding(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Len(); n != 50 {
		t.Fatalf("cache holds %d templates, want 50", n)
	}
	if got := reg.Counter(obs.MetricTemplateEvictions, "").Value(); got != 0 {
		t.Fatalf("evictions = %g, want 0", got)
	}
}

// templatesCached reads the resident template gauge.
func templatesCached(reg *obs.Registry) float64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == obs.MetricTemplatesCached {
			return g.Value
		}
	}
	return 0
}
