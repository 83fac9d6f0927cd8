package broker

import "qosres/internal/qos"

// This file implements the batch reservation sweep: a batch of
// independently planned requirement vectors validated and committed
// against the books in ONE sweep over their lock stripes. Where k
// serialized ReserveAtomic calls acquire (and convoy on) the hot
// resources' locks k times, a batch acquires each distinct stripe
// exactly once. ReserveAtomic is the one-member sweep.
//
// Members stay independent: each is validated in batch order against
// the book *plus* the demand already granted to earlier members of the
// same round, and commits all-or-nothing by itself. A refused member
// leaves no residue and never affects the outcome of the members after
// it beyond the capacity it did not consume.

// BatchStats summarizes the lock amortization of one batch sweep.
type BatchStats struct {
	// Members is the number of requirement vectors in the round.
	Members int
	// Admitted is how many of them committed.
	Admitted int
	// StripesLocked is the number of distinct stripes the round
	// acquired — once each, for all members together.
	StripesLocked int
	// StripesSolo is the total number of stripe acquisitions the same
	// members would have performed as individual ReserveAtomic calls;
	// StripesSolo − StripesLocked lock rounds were amortized away.
	StripesSolo int
	// BrokersTouched is the number of distinct Local brokers validated.
	BrokersTouched int
}

// ReserveBatch validates and commits a batch of requirement vectors in
// one round over the affected brokers' lock stripes. The returned
// slices are parallel to reqs: out[i] is member i's reservation when it
// was admitted, errs[i] its refusal otherwise (the bottleneck's
// ErrInsufficient, or a resolution error). Each member is all-or-
// nothing — either every hold of its plan is created or none is — and
// validation is exact: a member is admitted only if its aggregate
// demand fits every broker's current book on top of what earlier
// members of the same round were granted, so a round can never
// over-commit any broker (see Local.fitsLocked).
//
// Deadlock freedom: distinct stripes are acquired in ascending
// acquisition-rank order, the package-wide multi-lock order.
func ReserveBatch(now Time, resolve func(string) (Broker, bool), reqs []qos.ResourceVector) ([]*MultiReservation, []error, BatchStats) {
	out := make([]*MultiReservation, len(reqs))
	errs := make([]error, len(reqs))
	stats := BatchStats{Members: len(reqs)}

	// Resolve every member before taking any lock; resolution failures
	// refuse just their member.
	plans := make([]resolvedPlan, len(reqs))
	for i, req := range reqs {
		rp, err := resolvePlan(resolve, req)
		if err != nil {
			errs[i] = err
			continue
		}
		plans[i] = rp
	}

	// The union of the members' stripes, deduplicated: the whole round
	// acquires each one exactly once. soloStripes counts what the same
	// members would have locked individually.
	seenStripe := make(map[*stripe]bool)
	seenBroker := make(map[*Local]bool)
	var stripes []*stripe
	for i := range plans {
		if errs[i] != nil {
			continue
		}
		solo := make(map[*stripe]bool)
		for _, l := range plans[i].locals {
			solo[l.stripe] = true
			if !seenBroker[l] {
				seenBroker[l] = true
			}
			if !seenStripe[l.stripe] {
				seenStripe[l.stripe] = true
				stripes = append(stripes, l.stripe)
			}
		}
		stats.StripesSolo += len(solo)
	}
	stats.StripesLocked = len(stripes)
	stats.BrokersTouched = len(seenBroker)
	sortStripes(stripes)

	lockAll(stripes)
	// Validation sweep: each member is checked against the live book
	// plus the demand granted to earlier members of this round (the
	// books themselves don't move until the commit sweep below).
	granted := make(map[*Local]float64)
	admit := make([]bool, len(plans))
	for i := range plans {
		if errs[i] != nil {
			continue
		}
		rp := plans[i]
		if err := rp.shortfallLocked(granted); err != nil {
			errs[i] = err
			continue
		}
		admit[i] = true
		for l, d := range rp.demand {
			granted[l] += d
		}
	}
	// Commit sweep: every admitted member is now guaranteed to fit.
	for i := range plans {
		if admit[i] {
			out[i] = plans[i].commitLocked(now)
			stats.Admitted++
		}
	}
	unlockAll(stripes)
	return out, errs, stats
}

// ReserveBatchAll is ReserveBatch against the pool's own brokers, with
// each admitted reservation bound to the pool (like ReserveAllAtomic).
func (p *Pool) ReserveBatchAll(now Time, reqs []qos.ResourceVector) ([]*MultiReservation, []error, BatchStats) {
	out, errs, stats := ReserveBatch(now, p.Get, reqs)
	for _, m := range out {
		if m != nil {
			m.pool = p
		}
	}
	return out, errs, stats
}
