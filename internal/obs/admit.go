package obs

// Admission metric names: the validate-at-commit reserve protocol's
// visibility surface. Documented in README.md ("Observability").
const (
	// MetricAdmitRetries counts fresh-snapshot replanning attempts made
	// after a plan was refused at commit time.
	MetricAdmitRetries = "qosres_admit_retries_total"
	// MetricAdmitStaleRejects counts commit-time refusals: plans that
	// were feasible against their planning snapshot but no longer fit
	// the brokers' availability at reserve time.
	MetricAdmitStaleRejects = "qosres_admit_stale_rejections_total"
)

// AdmitMetrics bundles the admission-path counters: how often a
// computed plan was refused at commit time because its snapshot went
// stale, how many replanning retries that caused, and how many
// reservation attempts were rolled back. The zero value (or one built
// from a nil registry) is fully inert.
type AdmitMetrics struct {
	// Retries counts replanning attempts after commit refusals.
	Retries *Counter
	// Rollbacks counts rolled-back reservation attempts; it shares the
	// MetricRollbacks family with the simulation's direct path so
	// dashboards see one rollback signal regardless of execution mode.
	Rollbacks *Counter
	// StaleRejects counts commit-time refusals of stale-snapshot plans.
	StaleRejects *Counter
	// Shed counts admission requests refused outright by the bounded
	// in-flight gate (overload shedding).
	Shed *Counter
}

// NewAdmitMetrics registers (or re-fetches) the admission counters. A
// nil registry yields an inert value whose counters record nothing.
func NewAdmitMetrics(r *Registry) *AdmitMetrics {
	return &AdmitMetrics{
		Retries: r.Counter(MetricAdmitRetries,
			"Admission replanning attempts after a commit-time refusal."),
		Rollbacks: r.Counter(MetricRollbacks,
			"Multi-resource reservations rolled back after a partial failure."),
		StaleRejects: r.Counter(MetricAdmitStaleRejects,
			"Reservation plans refused at commit time because the planning snapshot went stale."),
		Shed: r.Counter(MetricAdmissionShed,
			"Admission requests shed by the bounded in-flight overload gate."),
	}
}
