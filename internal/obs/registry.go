// Package obs is a stdlib-only observability subsystem: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with quantile summaries), a Prometheus-text-format and
// JSON exposition layer (see prom.go, snapshot.go, http.go), and one
// stage timer for instrumenting the admission hot path (see span.go).
//
// The registry is designed so that a disabled (nil) registry costs
// nothing on the hot path: a nil *Registry is a valid no-op registry,
// every metric handle it returns is nil, and every metric method is
// nil-safe and allocation-free when the receiver is nil. Callers can
// therefore instrument unconditionally and let the caller's choice of
// registry decide whether anything is recorded.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType discriminates metric families, using the Prometheus
// exposition-format type names.
type MetricType string

// The supported metric types.
const (
	typeCounter   MetricType = "counter"
	typeGauge     MetricType = "gauge"
	typeHistogram MetricType = "histogram"
)

// Registry is a concurrency-safe collection of metric families. The
// zero *Registry (nil) is the no-op registry: it accepts every call and
// records nothing. Create a recording registry with New.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: every (label set) child shares the
// name, help text and type.
type family struct {
	name    string
	help    string
	typ     MetricType
	buckets []float64
	// metrics maps the canonical label rendering to the child metric.
	metrics map[string]*child
}

// child is one labeled instance of a family.
type child struct {
	labels []labelPair
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type labelPair struct{ k, v string }

// New creates an empty recording registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// labelKey renders kv label pairs canonically (sorted by key). It
// panics on an odd-length labels list, which is a programming error.
func labelKey(labels []string) ([]labelPair, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	pairs := make([]labelPair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labelPair{k: labels[i], v: labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	return pairs, b.String()
}

// get returns the child for (name, labels), creating the family and/or
// child on first use. Re-registration with the same name returns the
// existing metric (get-or-create semantics); the help text and buckets
// of the first registration win. Registering the same name with a
// different type panics.
func (r *Registry) get(typ MetricType, name, help string, buckets []float64, labels []string) *child {
	pairs, key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			metrics: make(map[string]*child)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	ch := f.metrics[key]
	if ch == nil {
		ch = &child{labels: pairs}
		switch typ {
		case typeCounter:
			ch.c = &Counter{}
		case typeGauge:
			ch.g = &Gauge{}
		case typeHistogram:
			ch.h = newHistogram(f.buckets)
		}
		f.metrics[key] = ch
	}
	return ch
}

// Counter returns the counter for (name, labels), creating it on first
// use. Labels are alternating key/value pairs. A nil registry returns a
// nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(typeCounter, name, help, nil, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(typeGauge, name, help, nil, labels).g
}

// Histogram returns the histogram for (name, labels), creating it on
// first use with the given bucket upper bounds (ascending; an implicit
// +Inf bucket is always appended). Buckets of later calls for the same
// name are ignored; the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(typeHistogram, name, help, buckets, labels).h
}

// visit calls fn for every family (sorted by name) and, within a
// family, for every child (sorted by label rendering), under the
// registry lock. Used by the exposition layer.
func (r *Registry) visit(fn func(f *family, key string, ch *child)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fn(f, k, f.metrics[k])
		}
	}
}

// Counter is a monotonically increasing float64. A nil *Counter is a
// valid no-op. Safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter. Negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64. A nil *Gauge is a valid no-op. Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set positions the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram of float64 observations. A nil
// *Histogram is a valid no-op. Safe for concurrent use.
type Histogram struct {
	mu sync.Mutex
	// bounds are the finite bucket upper bounds, ascending. counts has
	// len(bounds)+1 entries; the last is the +Inf overflow bucket.
	bounds []float64
	counts []uint64
	sum    float64
	total  uint64
	// exemplars pairs each bucket with the trace that most recently
	// landed in it; allocated lazily on the first exemplar so plain
	// observations pay nothing.
	exemplars []exemplar
}

// exemplar ties a bucket's most recent observation to the trace that
// produced it, letting dashboards jump from a latency bucket to a
// concrete trace tree.
type exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// observeExemplar records one value and attaches the trace that
// produced it as the landing bucket's exemplar (replacing any previous
// one). An empty trace ID degrades to a plain Observe.
func (h *Histogram) observeExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	if traceID == "" {
		h.Observe(v)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.counts))
	}
	h.exemplars[i] = exemplar{Value: v, TraceID: traceID}
	h.mu.Unlock()
}

// exemplarSnapshot copies the per-bucket exemplars (nil when none were
// ever attached).
func (h *Histogram) exemplarSnapshot() []exemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	out := make([]exemplar, len(h.exemplars))
	copy(out, h.exemplars)
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the target bucket, Prometheus-style: the first
// bucket interpolates from 0, and observations landing in the +Inf
// overflow bucket report the largest finite bound. Returns 0 when the
// histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	bounds := h.bounds
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	total := h.total
	h.mu.Unlock()
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: the best estimate is the largest bound.
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		return lower + (upper-lower)*(target-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// snapshotLocked returns copies of the histogram internals for the
// exposition layer.
func (h *Histogram) snapshot() (bounds []float64, counts []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return h.bounds, counts, h.sum, h.total
}

// expBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor: start, start*factor, ...
func expBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: expBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n evenly spaced bucket bounds: start,
// start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("obs: LinearBuckets needs n >= 1, width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
