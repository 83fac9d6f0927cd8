package sim

import (
	"strconv"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/trace"
)

// instruments bundles the pre-registered metric handles of one run. The
// zero value (from a nil registry) is fully inert: every handle is nil
// and every method returns immediately, so the hot path pays nothing
// when observability is off.
type instruments struct {
	reg    *obs.Registry
	stages *obs.PlanStages

	arrivals, planned, planFailed *obs.Counter
	reserved, reserveFailed       *obs.Counter
	released                      *obs.Counter
	rollbacks                     *obs.Counter
	psi                           *obs.Histogram
	simTime                       *obs.Gauge
	// admit carries the runtime admission counters (retries, rollbacks,
	// stale-snapshot rejections); inert without a registry.
	admit *obs.AdmitMetrics
	// faults carries the fault-injection and session-repair counters of
	// chaos runs; inert without a registry.
	faults *obs.FaultMetrics
	// adapt carries the mid-session adaptation counters (upgrades,
	// downgrades, held ticks, suppressed flaps, delivered QoS-seconds);
	// inert without a registry.
	adapt *obs.AdaptMetrics
}

const (
	eventsHelp = "Session lifecycle events by kind."
	utilHelp   = "Reserved fraction of the resource's capacity (0..1)."
	alphaHelp  = "Last observed availability change index per resource."
)

// newInstruments registers the run's metrics. A nil registry yields an
// inert value.
func newInstruments(r *obs.Registry) instruments {
	in := instruments{reg: r, stages: obs.NewPlanStages(r)}
	ev := func(kind trace.Kind) *obs.Counter {
		return r.Counter(obs.MetricSessionEvents, eventsHelp, "event", kind.String())
	}
	in.arrivals = ev(trace.Arrival)
	in.planned = ev(trace.Planned)
	in.planFailed = ev(trace.PlanFailed)
	in.reserved = ev(trace.Reserved)
	in.reserveFailed = ev(trace.ReserveFailed)
	in.released = ev(trace.Released)
	in.rollbacks = r.Counter(obs.MetricRollbacks,
		"Multi-resource reservations rolled back after a partial failure.")
	in.psi = r.Histogram(obs.MetricPlanPsi,
		"Bottleneck contention index of accepted plans.",
		obs.LinearBuckets(0.05, 0.05, 20))
	in.simTime = r.Gauge(obs.MetricSimTime, "Current simulation clock in TUs.")
	in.admit = obs.NewAdmitMetrics(r)
	in.faults = obs.NewFaultMetrics(r)
	in.adapt = obs.NewAdaptMetrics(r)
	// A chaos fabric fetches the transport set from the same registry;
	// registering it here as well gives every run the same /metrics
	// families whether or not its fabric records.
	obs.NewTransportMetrics(r)
	return in
}

// enabled reports whether the run records metrics.
func (in instruments) enabled() bool { return in.reg.Enabled() }

// observeAcceptedPlan records Ψ and the end-to-end QoS rank of an
// accepted plan.
func (in instruments) observeAcceptedPlan(p *core.Plan) {
	if in.reg == nil {
		return
	}
	in.psi.Observe(p.Psi)
	in.reg.Counter(obs.MetricPlanRank, "Accepted plans by end-to-end QoS level rank.",
		"rank", strconv.Itoa(p.Rank)).Inc()
}

// sampleAlpha refreshes the per-resource α gauges from a snapshot.
func (in instruments) sampleAlpha(snap *broker.Snapshot) {
	if in.reg == nil {
		return
	}
	for r, a := range snap.Alpha {
		in.reg.Gauge(obs.MetricAlpha, alphaHelp, "resource", r).Set(a)
	}
}

// sampleUtilization refreshes the utilization gauges of the named
// resources from the pool's live brokers.
func (in instruments) sampleUtilization(pool *broker.Pool, resources []string) {
	if in.reg == nil {
		return
	}
	for _, r := range resources {
		b, ok := pool.Get(r)
		if !ok {
			continue
		}
		cap := b.Capacity()
		if cap <= 0 {
			continue
		}
		in.reg.Gauge(obs.MetricUtilization, utilHelp, "resource", r).Set(1 - b.Available()/cap)
	}
}
