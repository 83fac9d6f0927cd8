package proxy

// Mid-session renegotiation: a live session moves to a different
// end-to-end QoS level without ever passing through a released state.
//
//   - The target level is planned through the same phase-1/phase-2
//     machinery as admission (template fast path) with the AtLevel
//     planner, which either returns the cheapest feasible plan at
//     exactly that level or ErrInfeasible. The snapshot is credited
//     with the session's own live holds — what it holds it keeps — so
//     a brownout downgrade stays plannable under full contention.
//   - An upgrade reserves only the DELTA between the target requirement
//     and the current holds, as a fresh hold through the idempotent
//     two-phase validate-at-commit path (and the WAL, when durability
//     is on). A refusal returns before the session is touched, so a
//     failed upgrade leaves it byte-identical at its old level.
//   - A downgrade releases the surplus whole by shrinking the live
//     holds in place (broker.Shrinker); shrinking only returns
//     capacity, so it cannot be refused.
//
// The whole protocol runs under s.mu — the same lock that fences
// Heartbeat, repair, and the single teardown path — so a heartbeat
// racing a downgrade renews the post-renegotiation holds, never a
// stale set.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/svc"
	"qosres/internal/topo"
)

// shrinkable is a reservation whose live holds can be reduced in place
// to a per-resource budget. The budget drains in place: passing the
// same vector through several reservations makes them share it.
type shrinkable interface {
	shrinkTo(now broker.Time, budget qos.ResourceVector) error
}

// shrinkReservation dispatches shrinkTo across the reservation
// implementations (raw broker reservations included).
func shrinkReservation(res reservation, now broker.Time, budget qos.ResourceVector) error {
	switch r := res.(type) {
	case shrinkable:
		return r.shrinkTo(now, budget)
	case *broker.MultiReservation:
		return r.ShrinkTo(now, budget)
	}
	return fmt.Errorf("proxy: %T does not support shrink", res)
}

// shrinkTo implements shrinkable for the per-host reservation set; the
// per-host shares drain one shared budget in host order. Shares are
// never removed from the set (an emptied one keeps its slot), so the
// journal shim's host alignment survives any number of downgrades.
func (r *reservationSet) shrinkTo(now broker.Time, budget qos.ResourceVector) error {
	var firstErr error
	for _, part := range r.parts {
		if err := part.ShrinkTo(now, budget); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// combined glues a session's kept reservation and its upgrade delta
// into one reservation: the session layer leases, releases, and shrinks
// them as a unit, and repeated renegotiations nest freely.
type combined struct {
	parts []reservation
}

func (c *combined) Release(now broker.Time) error {
	var firstErr error
	for _, p := range c.parts {
		if err := p.Release(now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (c *combined) SetLease(expiry broker.Time) error {
	for _, p := range c.parts {
		if err := p.SetLease(expiry); err != nil {
			return err
		}
	}
	return nil
}

func (c *combined) Touches() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range c.parts {
		for _, r := range p.Touches() {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

func (c *combined) shrinkTo(now broker.Time, budget qos.ResourceVector) error {
	var firstErr error
	for _, p := range c.parts {
		if err := shrinkReservation(p, now, budget); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LevelAt returns the end-to-end level name at a paper-style rank
// (RankOf's inverse: best level = highest rank), or "" when the rank is
// out of range.
func LevelAt(s *svc.Service, rank int) string {
	n := len(s.EndToEndRanking)
	if rank < 1 || rank > n {
		return ""
	}
	return s.EndToEndRanking[n-rank]
}

// Renegotiate moves a live session to the named end-to-end level, in
// place. The target is planned via the template fast path; an upgrade
// reserves only the delta over the current holds through the 2PC + WAL
// path (a refusal leaves the session untouched at its old level); a
// downgrade shrinks the surplus away without the holds ever passing
// through a released state. Fenced against concurrent Heartbeat,
// repair, and teardown by the session lock.
func (rt *Runtime) Renegotiate(ctx context.Context, s *Session, level string) error {
	if s == nil || s.runtime != rt {
		return errors.New("proxy: renegotiate: session not owned by this runtime")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.renegotiateLocked(ctx, level)
}

func (s *Session) renegotiateLocked(ctx context.Context, level string) error {
	if s.state != StateActive || s.reservation == nil {
		return ErrSessionLost
	}
	rt := s.runtime
	rank := s.spec.Service.RankOf(level)
	if rank == 0 {
		return fmt.Errorf("proxy: renegotiate: service has no end-to-end level %q", level)
	}
	if s.plan.EndToEnd.Name == level {
		return nil
	}
	upgrade := rank > s.plan.Rank

	root := rt.tracer.Root("renegotiate", string(s.mainHost))
	ctx = obs.ContextWithSpan(ctx, root)

	// Phases 1-2: plan the target level against a fresh snapshot,
	// credited with the session's own live holds — a renegotiation keeps
	// what it already has, so a downgrade is always plannable under
	// contention (it only returns capacity) and an upgrade needs
	// headroom only for its delta. The delta's 2PC still validates real
	// availability at commit, so the credit can waste a refusal but
	// never over-commit.
	oldReq := s.plan.Requirement()
	spec := s.spec
	spec.Planner = core.AtLevel{Level: level}
	plan, err := rt.planOnly(ctx, s.mainHost, spec, oldReq)
	if err != nil {
		root.EndStatus(admitStatus(err))
		return err
	}

	newReq := plan.Requirement()
	delta := make(qos.ResourceVector)
	for r, amt := range newReq {
		if extra := amt - oldReq[r]; extra > 0 {
			delta[r] = extra
		}
	}

	res := s.reservation
	if len(delta) > 0 {
		// Phase 3, delta only: validate-at-commit across the owning
		// proxies. Failure returns with the session byte-identical.
		deltaRes, derr := rt.commitPlan(ctx, s.mainHost, delta)
		if derr != nil {
			root.EndStatus(admitStatus(derr))
			return derr
		}
		res = &combined{parts: []reservation{res, deltaRes}}
	}

	// Release the surplus whole: shrink every hold down to the target
	// requirement, the kept reservation and the delta draining one
	// shared budget in that order. Shrinking cannot be refused, so from
	// here the renegotiation cannot fail back to the old level.
	now := rt.clock.Now()
	if err := shrinkReservation(res, now, newReq.Clone()); err != nil {
		// A hold that cannot shrink leaves the books matching no level at
		// all; terminating through the single teardown path is the only
		// exit that keeps holds and recorded level consistent.
		s.reservation = res
		_ = s.terminateLocked(StateFailed)
		root.EndStatus("error")
		return fmt.Errorf("proxy: renegotiate shrink: %w", err)
	}

	if err := s.installLocked(now, plan, res); err != nil {
		root.EndStatus("error")
		return err
	}
	if upgrade {
		rt.adapt.Upgrades.Inc()
	} else {
		rt.adapt.Downgrades.Inc()
	}
	root.End()
	return nil
}

// planOnly runs admission phases 1 and 2 — availability snapshot,
// template instantiation, planning — without committing anything: the
// planning half of Renegotiate. The credit (the caller's own live
// holds) is added to the snapshot's availability before planning.
func (rt *Runtime) planOnly(ctx context.Context, mainHost topo.HostID, spec SessionSpec, credit qos.ResourceVector) (*core.Plan, error) {
	resources, err := sessionResourceSet(spec)
	if err != nil {
		return nil, err
	}
	snap, err := rt.collectAvailability(ctx, mainHost, resources)
	if err != nil {
		return nil, err
	}
	for r, amt := range credit {
		snap.Avail[r] += amt
	}
	tpl := rt.templateFor(spec)
	var g *qrg.Graph
	if tpl != nil {
		g, err = tpl.Instantiate(snap)
	} else {
		g, err = qrg.Build(spec.Service, spec.Binding, snap)
	}
	if err != nil {
		return nil, err
	}
	plan, err := spec.Planner.Plan(g)
	if tpl != nil {
		tpl.Recycle(g)
	}
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// installLocked swaps a freshly admitted, repaired, or renegotiated
// plan and reservation into the session: the QoS-seconds segment that
// just ended accrues at its old rank, the touch set re-adopts, and the
// new holds are leased. Lease failure (a sweep won the race) exits
// through the single teardown path. Callers hold s.mu.
func (s *Session) installLocked(now broker.Time, plan *core.Plan, res reservation) error {
	s.qosAccrueLocked(now)
	s.plan = plan
	s.reservation = res
	s.adoptReservationLocked(res)
	if err := s.runtime.armLease(res); err != nil {
		_ = s.terminateLocked(StateFailed)
		return fmt.Errorf("%w: %v", ErrSessionLost, err)
	}
	return nil
}

// Service returns the session's service model (immutable after
// establishment).
func (s *Session) Service() *svc.Service { return s.spec.Service }

// MainHost returns the session's main QoSProxy host.
func (s *Session) MainHost() topo.HostID { return s.mainHost }

// Touches returns a sorted copy of the concrete resources the live
// reservation holds capacity on; empty when the session is not active.
func (s *Session) Touches() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.touches))
	for r := range s.touches {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// SessionList snapshots the live-session registry for the adaptation
// layer. Order is unspecified; callers needing determinism sort.
func (rt *Runtime) SessionList() []*Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Session, 0, len(rt.sessions))
	for s := range rt.sessions {
		out = append(out, s)
	}
	return out
}

// AuditSessions checks the adaptation invariant on every live session:
// the booked holds sum to exactly the recorded plan's requirement,
// per resource. A session whose lease a sweep already reclaimed is
// terminated (exactly as its next Heartbeat would be) and skipped, so
// sweep losses never misread as mismatches. Returns one description
// per violation.
func (rt *Runtime) AuditSessions(tol float64) []string {
	var bad []string
	ttl := rt.leaseTTL
	now := rt.clock.Now()
	for _, s := range rt.SessionList() {
		s.mu.Lock()
		if s.state != StateActive || s.reservation == nil {
			s.mu.Unlock()
			continue
		}
		if ttl > 0 {
			if err := s.reservation.SetLease(now + ttl); err != nil {
				if errors.Is(err, broker.ErrUnknownReservation) {
					_ = s.terminateLocked(StateFailed)
				}
				s.mu.Unlock()
				continue
			}
		}
		req := s.plan.Requirement()
		got := make(qos.ResourceVector)
		for _, ex := range reservationExports(s.reservation) {
			got[ex.Resource] += ex.Amount
		}
		level := s.plan.EndToEnd.Name
		for r, want := range req {
			if diff := got[r] - want; diff > tol || diff < -tol {
				bad = append(bad, fmt.Sprintf("session at level %s: resource %s holds %.6f, plan requires %.6f", level, r, got[r], want))
			}
		}
		for r, amt := range got {
			if _, ok := req[r]; !ok && amt > tol {
				bad = append(bad, fmt.Sprintf("session at level %s: stray hold on %s: %.6f", level, r, amt))
			}
		}
		s.mu.Unlock()
	}
	return bad
}
