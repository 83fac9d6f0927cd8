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
	// StageEstablish is the whole three-phase protocol end to end, timed
	// by the runtime's Establish; it also names every admission trace's
	// root span.
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
// nil and stages cost nothing.
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

// Stage times one admission stage: it couples one observation of the
// stage's histogram (exemplared with the trace ID when the stage's span
// is sampled) with ending that span. Inert — no clock read, no
// allocation — when the histogram is nil and the span does not record.
// Pass by value.
type Stage struct {
	h     *Histogram
	span  ActiveSpan
	tid   string
	start time.Time
	on    bool
}

// BeginStage starts timing a stage whose span the caller has just
// opened: a child of the admission's root span, or the root itself.
func BeginStage(h *Histogram, span ActiveSpan) Stage {
	st := Stage{h: h, span: span}
	if h != nil || span.Recording() {
		st.tid = span.TraceID()
		st.start = time.Now()
		st.on = true
	}
	return st
}

// Span returns the stage's span, for parenting the stage's own work
// (fabric calls) under it.
func (st Stage) Span() ActiveSpan { return st.span }

// End records the stage latency and ends the span: StatusOK when err is
// nil, status otherwise.
func (st Stage) End(err error, status string) {
	if !st.on {
		return
	}
	st.h.ObserveExemplar(time.Since(st.start).Seconds(), st.tid)
	st.span.EndErr(err, status)
}
