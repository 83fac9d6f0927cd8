package qrg

import (
	"container/list"
	"hash/maphash"
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
// and bindings by their contents, since callers commonly rebuild an
// identical binding map per session: an order-independent hash picks
// the entry, and a comparison with the entry's own copy of the binding
// confirms it, so a hit allocates nothing. A pair Compile refuses is
// cached with its error and answers from the cache like any other.
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
	binding uint64 // bindingHash
}

// cacheEntry is the list-element payload: the key (for map removal on
// eviction), the pair's binding flattened (compared on every hit), and
// Compile's result — the template, or the error refusing the pair.
type cacheEntry struct {
	key     templateKey
	binding []boundComp
	tpl     *Template
	err     error
}

// boundComp is one component's entries of a binding: abstract name,
// concrete resource.
type boundComp struct {
	id    svc.ComponentID
	pairs [][2]string
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

// Get returns the compiled template of the pair, or the error Compile
// refused it with, compiling and caching it on first use and marking it
// most-recently-used on every hit.
func (c *TemplateCache) Get(service *svc.Service, binding svc.Binding) (*Template, error) {
	key := templateKey{service: service, binding: bindingHash(binding)}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*cacheEntry); e.matches(binding) {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Inc()
			return e.tpl, e.err
		}
	}
	c.mu.Unlock()
	c.misses.Inc()
	tpl, err := Compile(service, binding)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*cacheEntry); e.matches(binding) {
			// A concurrent caller compiled the same pair first; keep the
			// resident template so every session shares one buffer pool.
			c.order.MoveToFront(el)
			return e.tpl, e.err
		}
		// A different binding with the same hash: the newer pair takes
		// the slot.
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, binding: flattenBinding(binding), tpl: tpl, err: err})
	for c.maxEntries > 0 && len(c.entries) > c.maxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.cached.Set(float64(len(c.entries)))
	return tpl, err
}

// Len returns the number of resident templates.
func (c *TemplateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// bindingSeed keys bindingHash for the life of the process.
var bindingSeed = maphash.MakeSeed()

// bindingHash hashes a binding's contents independently of map order:
// the sum of one hash per component and one per (component, abstract
// name, concrete resource) entry, each field hashed on its own and
// mixed by position. Equal bindings hash equally; a nil and an empty
// map are equal.
func bindingHash(b svc.Binding) uint64 {
	var sum uint64
	for cid, m := range b {
		hc := maphash.String(bindingSeed, string(cid))
		sum += hc
		for name, res := range m {
			h := (hc ^ maphash.String(bindingSeed, name)) * 0x9e3779b97f4a7c15
			sum += (h ^ maphash.String(bindingSeed, res)) * 0xbf58476d1ce4e5b9
		}
	}
	return sum
}

// flattenBinding copies a binding into slices, so a caller mutating its
// map after Get cannot change what the cache compares against, and a
// comparison walks slices instead of iterating maps.
func flattenBinding(b svc.Binding) []boundComp {
	out := make([]boundComp, 0, len(b))
	for cid, m := range b {
		c := boundComp{id: cid, pairs: make([][2]string, 0, len(m))}
		for name, res := range m {
			c.pairs = append(c.pairs, [2]string{name, res})
		}
		out = append(out, c)
	}
	return out
}

// matches reports whether b maps the same components' abstract names
// to the same concrete resources as the entry's binding.
func (e *cacheEntry) matches(b svc.Binding) bool {
	if len(b) != len(e.binding) {
		return false
	}
	for _, c := range e.binding {
		m, ok := b[c.id]
		if !ok || len(m) != len(c.pairs) {
			return false
		}
		for _, p := range c.pairs {
			if res, ok := m[p[0]]; !ok || res != p[1] {
				return false
			}
		}
	}
	return true
}
