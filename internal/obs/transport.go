package obs

import (
	"sync"
	"sync/atomic"
)

// Transport metric names: the message-fabric visibility surface.
// Documented in README.md ("Observability").
const (
	// MetricTransportMessages counts messages sent over the fabric, by
	// message kind (availability, model, prepare, commit, abort).
	MetricTransportMessages = "qosres_transport_messages_total"
	// MetricTransportDropped counts deliveries dropped by the fabric, by
	// reason (loss, partition, closed, no_handler).
	MetricTransportDropped = "qosres_transport_dropped_total"
	// MetricTransportDuplicated counts deliveries the fabric duplicated.
	MetricTransportDuplicated = "qosres_transport_duplicated_total"
	// MetricTransportCallTimeouts counts calls that hit their context
	// deadline (or cancellation) before a reply arrived.
	MetricTransportCallTimeouts = "qosres_transport_call_timeouts_total"
	// MetricTransportBreakerFastFail counts calls failed fast by an open
	// circuit breaker.
	MetricTransportBreakerFastFail = "qosres_transport_breaker_fastfail_total"
	// MetricTransportBreakerState gauges each route's breaker position
	// (0 closed, 1 half-open, 2 open).
	MetricTransportBreakerState = "qosres_transport_breaker_state"
	// MetricTransportCallSeconds is the per-route call-latency
	// histogram (seconds), labeled route=<from->to> and kind=<message
	// kind>; it covers every call outcome (reply, timeout, fast-fail).
	MetricTransportCallSeconds = "qosres_transport_call_seconds"
	// MetricAdmissionShed counts admission requests refused by the
	// bounded in-flight gate (overload shedding).
	MetricAdmissionShed = "qosres_admission_shed_total"
	// MetricRepairAbandoned counts sessions a RepairAffected sweep left
	// unexamined because its deadline expired first.
	MetricRepairAbandoned = "qosres_repair_deadline_abandoned_total"
)

// TransportMetrics bundles the message-fabric counters. The zero value
// (or one built from a nil registry) is fully inert. Labelled series
// are resolved once per label value and then read without a lock, so a
// message costs no label rendering.
type TransportMetrics struct {
	reg *Registry

	// Duplicated counts deliveries the fabric duplicated.
	Duplicated *Counter
	// CallTimeouts counts calls abandoned at their context deadline.
	CallTimeouts *Counter
	// BreakerFastFails counts calls refused by an open breaker.
	BreakerFastFails *Counter

	sent    labelled[string, *Counter]
	dropped labelled[string, *Counter]
	calls   labelled[[2]string, *Histogram]
	breaker labelled[string, *Gauge]
}

// labelled memoises the children of one labelled family by label
// values: the first use of a key resolves it in the registry, later
// uses read a copy-on-write map.
type labelled[K comparable, M any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]M]
}

// get returns the child for k, resolving it with resolve on first use.
// resolve takes the registry and key as arguments so callers pass a
// plain function and nothing is allocated per call.
func (l *labelled[K, M]) get(r *Registry, k K, resolve func(*Registry, K) M) M {
	if m := l.m.Load(); m != nil {
		if v, ok := (*m)[k]; ok {
			return v
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.m.Load()
	if old != nil {
		if v, ok := (*old)[k]; ok {
			return v
		}
	}
	next := make(map[K]M, 1)
	if old != nil {
		for key, v := range *old {
			next[key] = v
		}
	}
	v := resolve(r, k)
	next[k] = v
	l.m.Store(&next)
	return v
}

func sentCounter(r *Registry, kind string) *Counter {
	return r.Counter(MetricTransportMessages,
		"Messages sent over the transport fabric, by kind.", "kind", kind)
}

func droppedCounter(r *Registry, reason string) *Counter {
	return r.Counter(MetricTransportDropped,
		"Fabric deliveries dropped, by reason.", "reason", reason)
}

func callHistogram(r *Registry, rk [2]string) *Histogram {
	return r.Histogram(MetricTransportCallSeconds,
		"Fabric call latency in seconds, by route and message kind.",
		stageBuckets(), "route", rk[0], "kind", rk[1])
}

func breakerGauge(r *Registry, route string) *Gauge {
	return r.Gauge(MetricTransportBreakerState,
		"Per-route circuit breaker state (0 closed, 1 half-open, 2 open).",
		"route", route)
}

// NewTransportMetrics registers (or re-fetches) the transport counters.
// A nil registry yields an inert value whose counters record nothing.
func NewTransportMetrics(r *Registry) *TransportMetrics {
	return &TransportMetrics{
		reg: r,
		Duplicated: r.Counter(MetricTransportDuplicated,
			"Fabric deliveries duplicated by the duplication knob."),
		CallTimeouts: r.Counter(MetricTransportCallTimeouts,
			"Fabric calls abandoned at their context deadline."),
		BreakerFastFails: r.Counter(MetricTransportBreakerFastFail,
			"Fabric calls failed fast by an open circuit breaker."),
	}
}

// Enabled reports whether the metrics record anything (a backing
// registry exists). Safe on a nil receiver.
func (m *TransportMetrics) Enabled() bool { return m != nil && m.reg != nil }

// Sent counts one message of the given kind. Safe on a nil receiver or
// one built from a nil registry.
func (m *TransportMetrics) Sent(kind string) {
	if !m.Enabled() {
		return
	}
	m.sent.get(m.reg, kind, sentCounter).Inc()
}

// Dropped counts one delivery dropped for the given reason (loss,
// partition, closed). Safe on a nil receiver.
func (m *TransportMetrics) Dropped(reason string) {
	if !m.Enabled() {
		return
	}
	m.dropped.get(m.reg, reason, droppedCounter).Inc()
}

// Duplicate counts one duplicated delivery. Safe on a nil receiver.
func (m *TransportMetrics) Duplicate() {
	if m == nil {
		return
	}
	m.Duplicated.Inc()
}

// Timeout counts one call abandoned at its deadline. Safe on a nil
// receiver.
func (m *TransportMetrics) Timeout() {
	if m == nil {
		return
	}
	m.CallTimeouts.Inc()
}

// FastFail counts one breaker fast-failure. Safe on a nil receiver.
func (m *TransportMetrics) FastFail() {
	if m == nil {
		return
	}
	m.BreakerFastFails.Inc()
}

// Call records one fabric call's end-to-end latency in seconds for a
// route ("from->to") and message kind. Safe on a nil receiver.
func (m *TransportMetrics) Call(route, kind string, seconds float64) {
	if !m.Enabled() {
		return
	}
	m.calls.get(m.reg, [2]string{route, kind}, callHistogram).Observe(seconds)
}

// BreakerState gauges one route's breaker position (0 closed, 1
// half-open, 2 open). Safe on a nil receiver.
func (m *TransportMetrics) BreakerState(route string, state float64) {
	if !m.Enabled() {
		return
	}
	m.breaker.get(m.reg, route, breakerGauge).Set(state)
}
