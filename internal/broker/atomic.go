package broker

import (
	"fmt"

	"qosres/internal/qos"
)

// This file implements the validate-at-commit reservation protocol used
// by the admission path under concurrent session establishment.
//
// The paper's three-phase protocol is inherently time-of-check/time-of-
// use: availability is snapshotted (phase 1), a plan is computed against
// the snapshot (phase 2), and only then are reservations made (phase 3).
// Under concurrency the availability can change between snapshot and
// reserve, so phase 3 must re-validate the planned requirement against
// the brokers' *current* state — and it must do so atomically across
// every broker of the plan, or two sessions can interleave their partial
// reservations and refuse each other even though either would fit alone.
//
// ReserveAtomic provides that commit as the one-member special case of
// the batch sweep in batch.go: the requirement is resolved to
// its underlying Local brokers (end-to-end Network resources expand to
// their route links), their distinct lock stripes are acquired in the
// package-wide acquisition-rank order, every broker's aggregate demand
// is validated against its current book, and only then is every hold
// created. A refusal therefore leaves no residue at all, and a success
// can never over-commit any broker.

// atomicPart is one requirement entry of an atomic reservation plan.
type atomicPart struct {
	local  *Local   // set for local/link resources
	net    *Network // set for end-to-end network resources
	amount float64
}

// resolvedPlan is one requirement vector resolved to its underlying
// Local brokers, ready to validate and commit under stripe locks.
type resolvedPlan struct {
	parts []atomicPart
	// demand aggregates the total amount required from each underlying
	// Local broker; the same link can back several network resources of
	// one plan (shared route segments) and must satisfy their sum.
	demand map[*Local]float64
	// locals are the distinct brokers of demand, in first-seen order.
	locals []*Local
}

// resolvePlan expands a requirement vector to the Local brokers backing
// it. No locks are taken.
func resolvePlan(resolve func(string) (Broker, bool), req qos.ResourceVector) (resolvedPlan, error) {
	var rp resolvedPlan
	rp.demand = make(map[*Local]float64)
	need := func(l *Local, amount float64) {
		if _, seen := rp.demand[l]; !seen {
			rp.locals = append(rp.locals, l)
		}
		rp.demand[l] += amount
	}
	for _, r := range req.Names() {
		amount := req[r]
		if amount == 0 {
			continue
		}
		if amount < 0 {
			return resolvedPlan{}, fmt.Errorf("broker: resource %s: negative reservation %g", r, amount)
		}
		b, ok := resolve(r)
		if !ok {
			return resolvedPlan{}, fmt.Errorf("broker: reserve of unknown resource %s", r)
		}
		switch t := b.(type) {
		case *Local:
			need(t, amount)
			rp.parts = append(rp.parts, atomicPart{local: t, amount: amount})
		case *Network:
			for _, l := range t.links {
				need(l, amount)
			}
			rp.parts = append(rp.parts, atomicPart{net: t, amount: amount})
		default:
			return resolvedPlan{}, fmt.Errorf("broker: resource %s: %T does not support atomic reservation", r, b)
		}
	}
	return rp, nil
}

// shortfallLocked validates the plan's aggregate demand against every
// broker's current book and returns the first bottleneck, or nil when
// the whole plan fits. extra carries demand already granted to earlier
// members of the same batch sweep (nil outside a batch).
// Callers must hold the stripe locks of every broker in the plan.
func (rp resolvedPlan) shortfallLocked(extra map[*Local]float64) error {
	// fitsLocked folds in the failure state, so a plan touching a down
	// resource (or one whose capacity collapsed below its holds) is
	// refused here like any other shortfall.
	for _, l := range rp.locals {
		need := rp.demand[l] + extra[l]
		if !l.fitsLocked(need) {
			return fmt.Errorf("broker: resource %s: need %g, have %g: %w",
				l.resource, rp.demand[l], l.availLocked()-extra[l], ErrInsufficient)
		}
	}
	return nil
}

// commitLocked creates every hold of a validated plan. Callers must
// hold the stripe locks of every broker in the plan and have validated
// the plan with shortfallLocked.
func (rp resolvedPlan) commitLocked(now Time) *MultiReservation {
	m := &MultiReservation{}
	for _, p := range rp.parts {
		if p.local != nil {
			m.parts = append(m.parts, multiPart{broker: p.local, id: p.local.reserveLocked(now, p.amount)})
			continue
		}
		held := make([]linkHold, len(p.net.links))
		for i, l := range p.net.links {
			held[i] = linkHold{link: l, id: l.reserveLocked(now, p.amount)}
		}
		m.parts = append(m.parts, multiPart{broker: p.net, id: p.net.adopt(held)})
	}
	return m
}

// ReserveAtomic reserves every (resource, amount) pair of req
// all-or-nothing against the brokers returned by resolve: either every
// hold (including every per-link hold of network resources) is created,
// or none is and the bottleneck's ErrInsufficient is returned. Unlike
// sequential reserve-then-rollback, validation happens before any state
// changes, so concurrent callers never observe — or fail because of —
// partial reservations, and no broker can ever exceed its capacity.
//
// Deadlock freedom: the commit paths (this function, ReserveBatch, and
// Network.availAll) are the only code in the package that holds more
// than one stripe lock at a time, and all acquire distinct stripes in
// ascending acquisition-rank order — a total order even across pools
// and for brokers sharing a resource ID (see stripe.go).
func ReserveAtomic(now Time, resolve func(string) (Broker, bool), req qos.ResourceVector) (*MultiReservation, error) {
	res, errs, _ := ReserveBatch(now, resolve, []qos.ResourceVector{req})
	if errs[0] != nil {
		return nil, errs[0]
	}
	return res[0], nil
}

// ReserveAllAtomic is ReserveAll with commit-time validation: the whole
// requirement is checked against every involved broker's current
// availability under the global lock order before any hold is created.
// See ReserveAtomic for the protocol.
func (p *Pool) ReserveAllAtomic(now Time, req qos.ResourceVector) (*MultiReservation, error) {
	m, err := ReserveAtomic(now, p.Get, req)
	if err != nil {
		return nil, err
	}
	m.pool = p
	return m, nil
}
