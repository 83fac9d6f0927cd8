package obs

import "time"

// Span stages of the session-planning hot path, used as the stage label
// of the MetricPlanStage histogram and as trace span stage names. The
// direct simulation path and the QoSProxy runtime's three-phase
// protocol record into the same stages so dashboards need not care
// which execution mode produced a sample.
const (
	// StageSnapshot is availability snapshot collection (phase 1).
	StageSnapshot = "snapshot"
	// StageBuild is QoS-Resource-Graph construction.
	StageBuild = "qrg_build"
	// StagePlan is the planning algorithm itself (min-max Dijkstra and
	// the tradeoff/DAG passes).
	StagePlan = "plan"
	// StageReserve is reservation dispatch (phase 3), including any
	// rollback on refusal.
	StageReserve = "reserve"
	// StageEstablish is the whole three-phase protocol end to end; only
	// emitted as a trace span by runtime-mode simulations.
	StageEstablish = "establish"
)

// Canonical metric names of the instrumented system; documented in
// README.md ("Observability").
const (
	// MetricPlanStage is the planning stage-latency histogram
	// (seconds), labeled stage=snapshot|qrg_build|plan|reserve.
	MetricPlanStage = "qosres_plan_stage_seconds"
	// MetricSessionEvents counts session lifecycle events, labeled
	// event=arrival|planned|plan_failed|reserved|reserve_failed|released.
	MetricSessionEvents = "qosres_session_events_total"
	// MetricRollbacks counts multi-resource reservation rollbacks.
	MetricRollbacks = "qosres_reservation_rollbacks_total"
	// MetricPlanPsi is the bottleneck contention index Ψ of accepted
	// plans.
	MetricPlanPsi = "qosres_plan_psi"
	// MetricPlanRank counts accepted plans by end-to-end QoS level
	// rank, labeled rank=<n>.
	MetricPlanRank = "qosres_plan_rank_total"
	// MetricUtilization is the per-resource reserved fraction (0..1),
	// labeled resource=<id>.
	MetricUtilization = "qosres_resource_utilization"
	// MetricAlpha is the last observed availability change index α per
	// resource, labeled resource=<id>.
	MetricAlpha = "qosres_resource_alpha"
	// MetricSimTime is the current simulation clock in TUs.
	MetricSimTime = "qosres_sim_time_tus"
	// MetricTemplateHits counts QRG constructions served from a
	// compiled (service, binding) template.
	MetricTemplateHits = "qosres_qrg_template_hits_total"
	// MetricTemplateMisses counts QRG template cache misses (each miss
	// compiles and caches a new template).
	MetricTemplateMisses = "qosres_qrg_template_misses_total"
	// MetricTemplatesCached gauges the number of compiled templates
	// resident in a cache.
	MetricTemplatesCached = "qosres_qrg_templates_cached"
	// MetricTemplateEvictions counts compiled templates evicted by the
	// cache's LRU bound.
	MetricTemplateEvictions = "qosres_qrg_template_evictions_total"
)

// StageBuckets are the default latency buckets of the stage histograms:
// 1µs up to ~0.5s, exponentially spaced.
func StageBuckets() []float64 { return ExpBuckets(1e-6, 2, 20) }

// PlanStages bundles the stage-latency histograms of the planning hot
// path. Obtained from NewPlanStages; with a nil registry every field is
// nil and spans cost nothing.
type PlanStages struct {
	Snapshot  *Histogram
	Build     *Histogram
	Plan      *Histogram
	Reserve   *Histogram
	Establish *Histogram
}

// NewPlanStages registers (or re-fetches) the stage histograms. Safe to
// call repeatedly: the same histograms are returned each time, which
// lets post-run code read the quantiles the run recorded.
func NewPlanStages(r *Registry) *PlanStages {
	help := "Planning hot-path stage latency in seconds."
	bk := StageBuckets()
	return &PlanStages{
		Snapshot:  r.Histogram(MetricPlanStage, help, bk, "stage", StageSnapshot),
		Build:     r.Histogram(MetricPlanStage, help, bk, "stage", StageBuild),
		Plan:      r.Histogram(MetricPlanStage, help, bk, "stage", StagePlan),
		Reserve:   r.Histogram(MetricPlanStage, help, bk, "stage", StageReserve),
		Establish: r.Histogram(MetricPlanStage, help, bk, "stage", StageEstablish),
	}
}

// Span measures one stage execution into a histogram. The zero Span
// (and any span started against a nil histogram) is a no-op that never
// reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing a stage. With a nil histogram the returned
// span is inert and free.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End stops the span, records the elapsed time in seconds, and returns
// the duration (0 for inert spans).
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}
