package proxy

// Session repair: when a fault (injected or observed) invalidates live
// reservations, the runtime walks its session registry and, for every
// session holding capacity on an affected resource, runs the repair
// protocol:
//
//  1. release the session's surviving holds all-or-nothing — a repair
//     must never leave a half-torn-down reservation behind;
//  2. re-run the three-phase admission against a fresh snapshot with
//     the session's own planner, aiming at the same target QoS;
//  3. if that fails (or lands below the original level), retry once
//     with the tradeoff planner, letting the α-driven policy of
//     section 4.3.1 trade QoS level for admission success;
//  4. only when even the downgrade finds no feasible plan is the
//     session terminated.
//
// A repair is a forced renegotiation: because the fault invalidated the
// old holds, the whole target requirement is re-reserved (the "delta"
// is everything) and the result is installed into the session through
// the same installLocked path Runtime.Renegotiate uses, under the same
// session lock.
//
// The outcome taxonomy matches the repair counters: Repaired (same or
// better end-to-end QoS than before the fault), Degraded (re-admitted
// at a lower level), Failed (terminated).

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"qosres/internal/core"
	"qosres/internal/obs"
)

// RepairOutcome classifies what the repair protocol did to one session.
type RepairOutcome int

const (
	// RepairUnaffected: the session held nothing on the failed
	// resources; it was left alone.
	RepairUnaffected RepairOutcome = iota
	// RepairRepaired: re-admitted at the same or a better QoS level.
	RepairRepaired
	// RepairDegraded: re-admitted at a lower QoS level.
	RepairDegraded
	// RepairFailed: no feasible plan even after the tradeoff downgrade;
	// the session was terminated and its surviving holds released.
	RepairFailed
)

// String renders the outcome for logs and the simulation summary.
func (o RepairOutcome) String() string {
	switch o {
	case RepairUnaffected:
		return "unaffected"
	case RepairRepaired:
		return "repaired"
	case RepairDegraded:
		return "degraded"
	case RepairFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// RepairReport summarizes one RepairAffected sweep.
type RepairReport struct {
	// Affected is the number of live sessions holding capacity on at
	// least one of the failed resources.
	Affected int
	// Repaired, Degraded, Failed partition Affected by outcome.
	Repaired int
	Degraded int
	Failed   int
	// Abandoned counts sessions the sweep never examined because its
	// deadline expired first (RepairAffectedContext). Abandoned sessions
	// keep whatever reservation they held; a later sweep — or the lease
	// machinery, if the fault actually cost them capacity — settles them.
	Abandoned int
}

// RepairAffected runs the repair protocol with no deadline — every
// affected session is examined, however long the sweep takes. Prefer
// RepairAffectedContext where a mass failure could make an unbounded
// sweep dangerous.
func (rt *Runtime) RepairAffected(failed []string) RepairReport {
	return rt.RepairAffectedContext(context.Background(), failed)
}

// RepairAffectedContext runs the repair protocol for every live session
// whose reservation holds capacity on any of the given resources
// (matched against the reservation's full touch set, including the
// route links under end-to-end network holds), bounded by ctx. It
// returns the per-outcome tally.
//
// Sessions are repaired sequentially in registration-set order; each
// repair's re-admission sees the capacity its own release just freed,
// mirroring the paper's one-at-a-time session establishment at the
// main QoSProxy. The deadline is checked between sessions (and observed
// inside each repair's re-admission): when it expires, the remaining
// sessions are counted as Abandoned (and under
// qosres_repair_deadline_abandoned_total) and left untouched, so a
// mass-failure sweep degrades to partial repair instead of running
// unbounded.
func (rt *Runtime) RepairAffectedContext(ctx context.Context, failed []string) RepairReport {
	set := make(map[string]bool, len(failed))
	for _, r := range failed {
		set[r] = true
	}
	rt.mu.Lock()
	sessions := make([]*Session, 0, len(rt.sessions))
	for s := range rt.sessions {
		sessions = append(sessions, s)
	}
	rt.mu.Unlock()
	// The registry is a set; iterate deterministically so chaos runs
	// with a fixed seed repair in a stable order.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Plan.PathLevels < sessions[j].Plan.PathLevels })

	// Trace root: one trace per sweep; each affected session's repair
	// hangs a child span under it (whose re-admission stages nest in
	// turn). Every exit path terminates the root.
	root := rt.tracer.Root("repair", strings.Join(failed, ","))
	ctx = obs.ContextWithSpan(ctx, root)

	var rep RepairReport
	m := rt.faults
	for i, s := range sessions {
		if ctx.Err() != nil {
			n := len(sessions) - i
			rep.Abandoned += n
			m.RepairAbandoned.Add(float64(n))
			root.Event(obs.EventDeadlineExceeded, fmt.Sprintf("%d session(s) abandoned", n))
			break
		}
		switch s.repair(ctx, set) {
		case RepairUnaffected:
		case RepairRepaired:
			rep.Affected++
			rep.Repaired++
			m.Repaired.Inc()
		case RepairDegraded:
			rep.Affected++
			rep.Degraded++
			m.Degraded.Inc()
		case RepairFailed:
			rep.Affected++
			rep.Failed++
			m.RepairFailed.Inc()
		}
	}
	if rep.Abandoned > 0 {
		root.EndStatus("deadline_exceeded")
	} else {
		root.End()
	}
	return rep
}

// repair runs the repair protocol on one session if the failed-resource
// set intersects its touch set. s.mu is held for the whole protocol —
// release, re-admission, state swap — so an owner Release racing the
// repair either runs before it (the session is gone, RepairUnaffected)
// or after it (releasing whichever reservation the repair installed),
// never interleaved with it.
func (s *Session) repair(ctx context.Context, failed map[string]bool) (outcome RepairOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateActive || s.reservation == nil {
		return RepairUnaffected
	}
	hit := false
	for r := range s.touches {
		if failed[r] {
			hit = true
			break
		}
	}
	if !hit {
		return RepairUnaffected
	}

	rt := s.runtime
	now := rt.clock.Now()
	oldRank := s.plan.Rank

	// One child span per affected session under the sweep's root; the
	// re-admission's stage spans nest under it via the context.
	sp := obs.SpanFromContext(ctx).Child("repair_session", string(s.mainHost))
	ctx = obs.ContextWithSpan(ctx, sp)
	defer func() {
		switch outcome {
		case RepairRepaired:
			sp.End()
		default:
			sp.EndStatus(outcome.String())
		}
	}()

	// Step 1: release the invalidated reservation whole. The brokers
	// keep their book of holds across failures, so the release drains
	// cleanly even on failed resources; a leased part reclaimed by a
	// concurrent sweep is tolerated.
	res := s.reservation
	s.reservation = nil
	s.touches = nil
	_ = res.Release(now)

	// Step 2: re-admit at the same target QoS with the session's own
	// planner against a fresh snapshot.
	plan, newRes, err := rt.admitOnce(ctx, s.mainHost, s.spec)

	// Step 3: on failure, or when the planner's best is now below the
	// original level, let the tradeoff policy look for a downgrade it
	// would accept. (When the session already plans with the tradeoff
	// policy, its own attempt was the downgrade; don't repeat it.)
	if err != nil && ctx.Err() == nil && s.spec.Planner.Name() != (core.Tradeoff{}).Name() {
		spec := s.spec
		spec.Planner = core.Tradeoff{}
		plan, newRes, err = rt.admitOnce(ctx, s.mainHost, spec)
	}
	if err != nil {
		// Step 4: no feasible plan at any level. Terminate: the state
		// flip unregisters the session; the reservation is already gone.
		_ = s.terminateLocked(StateFailed)
		return RepairFailed
	}

	// Install through the same path a renegotiation takes: a repair is a
	// forced renegotiation — the fault already invalidated the holds, so
	// the "delta" is the entire new requirement and there is nothing to
	// shrink. QoS-seconds accrual, touch-set adoption, and leasing (with
	// its terminate-on-failure exit) are one shared code path.
	if err := s.installLocked(rt.clock.Now(), plan, newRes); err != nil {
		return RepairFailed
	}
	s.repairs++
	if plan.Rank >= oldRank {
		return RepairRepaired
	}
	return RepairDegraded
}
