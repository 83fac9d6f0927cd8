package qrg

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"qosres/internal/obs"
	"qosres/internal/svc"
)

// DefaultTemplateCacheSize is the LRU bound of NewTemplateCache:
// generous enough that a deployment's whole service catalogue times its
// placements stays resident (templates are a few KB each), while a
// workload generating unbounded distinct bindings — per-session hosts,
// leaked service pointers — can no longer grow the cache without limit.
const DefaultTemplateCacheSize = 4096

// TemplateCache memoizes compiled QRG templates per (service, binding)
// pair so the per-arrival hot path pays Compile once and Instantiate
// thereafter. Services are keyed by pointer identity — the expected
// usage is a fixed catalogue of service models shared across sessions —
// and bindings by a canonical fingerprint of their contents, since
// callers commonly rebuild an identical binding map per session.
//
// Behind the serving daemon the pointer identity holds because
// spec.Catalog interns each service model by its wire bytes. Before it
// did, every request built a fresh *svc.Service from its document: the
// cache never hit, and the leaked pointers filled it to its bound, which
// was most of the daemon's resident memory.
//
// The cache is safe for concurrent use and bounded: at most maxEntries
// templates stay resident, evicted least-recently-used. The bound
// defends against key-space leaks (a churning catalogue of service
// pointers or ever-changing bindings) that would otherwise grow the
// cache for the life of the process; an eviction therefore signals
// either an undersized cache or a leaking key population, which is why
// evictions are counted under their own metric.
type TemplateCache struct {
	mu         sync.Mutex
	entries    map[templateKey]*list.Element
	order      *list.List // front = most recently used
	maxEntries int        // 0 = unbounded

	hits      *obs.Counter
	misses    *obs.Counter
	cached    *obs.Gauge
	evictions *obs.Counter
}

type templateKey struct {
	service *svc.Service
	binding string
}

// cacheEntry is the list-element payload: the key (for map removal on
// eviction) plus the compiled template.
type cacheEntry struct {
	key templateKey
	tpl *Template
}

// NewTemplateCache returns an empty cache bounded at
// DefaultTemplateCacheSize, registering its hit/miss/eviction counters
// and resident-template gauge with r (nil r disables metrics at zero
// cost, the obs convention).
func NewTemplateCache(r *obs.Registry) *TemplateCache {
	return NewTemplateCacheSize(r, DefaultTemplateCacheSize)
}

// NewTemplateCacheSize returns an empty cache holding at most
// maxEntries compiled templates (least-recently-used eviction); 0 means
// unlimited, negative values collapse to 1.
func NewTemplateCacheSize(r *obs.Registry, maxEntries int) *TemplateCache {
	if maxEntries < 0 {
		maxEntries = 1
	}
	return &TemplateCache{
		entries:    make(map[templateKey]*list.Element),
		order:      list.New(),
		maxEntries: maxEntries,
		hits:       r.Counter(obs.MetricTemplateHits, "QRG constructions served from a compiled template."),
		misses:     r.Counter(obs.MetricTemplateMisses, "QRG template cache misses (compilations)."),
		cached:     r.Gauge(obs.MetricTemplatesCached, "Compiled QRG templates resident in the cache."),
		evictions:  r.Counter(obs.MetricTemplateEvictions, "Compiled QRG templates evicted by the LRU bound."),
	}
}

// Get returns the compiled template of the pair, compiling and caching
// it on first use and marking it most-recently-used on every hit.
func (c *TemplateCache) Get(service *svc.Service, binding svc.Binding) (*Template, error) {
	key := templateKey{service: service, binding: bindingFingerprint(binding)}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		tpl := el.Value.(*cacheEntry).tpl
		c.mu.Unlock()
		c.hits.Inc()
		return tpl, nil
	}
	c.mu.Unlock()
	c.misses.Inc()
	tpl, err := Compile(service, binding)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// A concurrent caller compiled the same pair first; keep the
		// resident template so every session shares one buffer pool.
		c.order.MoveToFront(el)
		tpl = el.Value.(*cacheEntry).tpl
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, tpl: tpl})
		for c.maxEntries > 0 && len(c.entries) > c.maxEntries {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			c.evictions.Inc()
		}
		c.cached.Set(float64(len(c.entries)))
	}
	c.mu.Unlock()
	return tpl, nil
}

// Len returns the number of resident templates.
func (c *TemplateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// bindingFingerprint renders a binding canonically: components and
// abstract resource names in sorted order, fields separated by control
// bytes that cannot occur in identifiers.
func bindingFingerprint(b svc.Binding) string {
	comps := make([]string, 0, len(b))
	for cid := range b {
		comps = append(comps, string(cid))
	}
	sort.Strings(comps)
	var sb strings.Builder
	names := make([]string, 0, 8)
	for _, cid := range comps {
		sb.WriteString(cid)
		sb.WriteByte(1)
		m := b[svc.ComponentID(cid)]
		names = names[:0]
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sb.WriteString(name)
			sb.WriteByte(2)
			sb.WriteString(string(m[name]))
			sb.WriteByte(3)
		}
	}
	return sb.String()
}
