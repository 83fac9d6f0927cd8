package obs

import "testing"

// TestTransportMetricsPerMessageCost pins what a fabric message costs
// its metrics: nothing at all without a registry, and no allocation
// with one once each labelled series has been used, since the series
// are resolved once instead of re-rendering their label key.
func TestTransportMetricsPerMessageCost(t *testing.T) {
	perMessage := func(m *TransportMetrics) func() {
		return func() {
			m.Sent("prepare")
			m.Dropped("loss")
			m.Call("X->Y", "prepare", 1e-4)
			m.BreakerState("X->Y", 0)
		}
	}
	if allocs := testing.AllocsPerRun(1000, perMessage(NewTransportMetrics(nil))); allocs != 0 {
		t.Errorf("nil registry: %.1f allocations per message", allocs)
	}
	reg := New()
	m := NewTransportMetrics(reg)
	msg := perMessage(m)
	msg()
	if allocs := testing.AllocsPerRun(1000, msg); allocs != 0 {
		t.Errorf("registry: %.1f allocations per message", allocs)
	}
	if got := reg.Counter(MetricTransportMessages, "", "kind", "prepare").Value(); got != 1002 {
		t.Errorf("%s{kind=prepare} = %v, want 1002", MetricTransportMessages, got)
	}
	if got := reg.Histogram(MetricTransportCallSeconds, "", stageBuckets(), "route", "X->Y", "kind", "prepare").Count(); got != 1002 {
		t.Errorf("%s count = %d, want 1002", MetricTransportCallSeconds, got)
	}
}
