package broker

import (
	"fmt"
	"slices"

	"qosres/internal/qos"
)

// This file is the package's one multi-book commit, used by every
// admission path: a QoSProxy's prepare over its own brokers, and the
// simulator's reserve over the whole pool.
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
// ReserveAtomic resolves the requirement to its underlying Local
// brokers (end-to-end Network resources expand to one hold per route
// link), locks their distinct books in ascending registration rank,
// validates every book's aggregate demand against its current state,
// and only then creates every hold. A refusal therefore leaves no
// residue at all, and a success can never over-commit any broker.

// atomicPart is a broker and an amount: one hold an atomic reservation
// plan creates, or the plan's total demand on one book.
type atomicPart struct {
	local  *Local
	amount float64
}

// resolvedPlan is one requirement vector resolved to its underlying
// Local brokers, ready to validate and commit under their locks.
type resolvedPlan struct {
	// parts are the holds to create, in requirement order, a network
	// requirement contributing one part per link in route order.
	parts []atomicPart
	// books are the distinct brokers of parts in ascending seq — the
	// lock order — each with the plan's total demand on it: the same
	// link can back several network resources of one plan (shared
	// route segments) and must satisfy their sum.
	books []atomicPart
}

// resolvePlan expands a requirement vector to the Local brokers backing
// it: the one requirement→link expansion of the package. No locks are
// taken. The requirement is walked twice — once to validate it and
// count its holds, once to record them — so parts and books share one
// allocation sized up front.
func resolvePlan(resolve func(string) (Broker, bool), req qos.ResourceVector) (resolvedPlan, error) {
	names := req.Names()
	n := 0
	for _, r := range names {
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
			n++
		case *Network:
			n += len(t.links)
		default:
			return resolvedPlan{}, fmt.Errorf("broker: resource %s: %T does not support atomic reservation", r, b)
		}
	}
	buf := make([]atomicPart, 2*n)
	rp := resolvedPlan{parts: buf[:0:n], books: buf[n:n]}
	for _, r := range names {
		amount := req[r]
		if amount == 0 {
			continue
		}
		b, _ := resolve(r)
		switch t := b.(type) {
		case *Local:
			rp.add(t, amount)
		case *Network:
			for _, l := range t.links {
				rp.add(l, amount)
			}
		}
	}
	return rp, nil
}

// add appends one hold to the plan and folds its amount into its book's
// demand, inserting the book in seq order on first sight.
func (rp *resolvedPlan) add(l *Local, amount float64) {
	rp.parts = append(rp.parts, atomicPart{local: l, amount: amount})
	i := len(rp.books)
	for i > 0 && rp.books[i-1].local.seq > l.seq {
		i--
	}
	if i > 0 && rp.books[i-1].local == l {
		rp.books[i-1].amount += amount
		return
	}
	rp.books = slices.Insert(rp.books, i, atomicPart{local: l, amount: amount})
}

// Demand expands a requirement vector to what committing it holds on
// each Local broker, keyed by resource ID: a network requirement counts
// on every link of its route, and links shared by several routes carry
// their sum. It is the budget a reservation shrinks to and the amount
// an audit expects each book to hold for it.
func Demand(resolve func(string) (Broker, bool), req qos.ResourceVector) (qos.ResourceVector, error) {
	rp, err := resolvePlan(resolve, req)
	if err != nil {
		return nil, err
	}
	out := make(qos.ResourceVector, len(rp.books))
	for _, b := range rp.books {
		out[b.local.resource] = b.amount
	}
	return out, nil
}

// commit locks the plan's books in ascending seq, validates the whole
// plan against them and, only when every book fits, creates every hold.
func (rp resolvedPlan) commit(now Time) (*MultiReservation, error) {
	for _, b := range rp.books {
		b.local.mu.Lock()
	}
	var m *MultiReservation
	err := rp.shortfallLocked()
	if err == nil {
		m = rp.commitLocked(now)
	}
	for i := len(rp.books) - 1; i >= 0; i-- {
		rp.books[i].local.mu.Unlock()
	}
	return m, err
}

// shortfallLocked validates the plan's aggregate demand against every
// book's current state and returns the first bottleneck in lock order,
// or nil when the whole plan fits. Callers must hold every book's lock.
func (rp resolvedPlan) shortfallLocked() error {
	// fitsLocked folds in the failure state, so a plan touching a down
	// resource (or one whose capacity collapsed below its holds) is
	// refused here like any other shortfall.
	for _, b := range rp.books {
		if !b.local.fitsLocked(b.amount) {
			return fmt.Errorf("broker: resource %s: need %g, have %g: %w",
				b.local.resource, b.amount, b.local.availLocked(), ErrInsufficient)
		}
	}
	return nil
}

// commitLocked creates every hold of a validated plan. Callers must
// hold every book's lock and have validated the plan with
// shortfallLocked.
func (rp resolvedPlan) commitLocked(now Time) *MultiReservation {
	m := &MultiReservation{parts: make([]multiPart, len(rp.parts))}
	for i, p := range rp.parts {
		m.parts[i] = multiPart{broker: p.local, id: p.local.reserveLocked(now, p.amount)}
	}
	return m
}

// ReserveAtomic reserves every (resource, amount) pair of req
// all-or-nothing against the brokers returned by resolve: either every
// hold (one per link for network resources) is created, or none is and
// the bottleneck's ErrInsufficient is returned — "the failure to
// reserve one resource leads to the reservation failure for the whole
// distributed service session". Validation happens before any state
// changes, so concurrent callers never observe — or fail because of —
// partial reservations, and no broker can ever exceed its capacity.
//
// Deadlock freedom: this function and a Network's locked reads are the
// only code in the package that holds more than one book lock at a
// time, and both lock distinct books in ascending seq — a total order
// even across pools and for brokers sharing a resource ID.
func ReserveAtomic(now Time, resolve func(string) (Broker, bool), req qos.ResourceVector) (*MultiReservation, error) {
	rp, err := resolvePlan(resolve, req)
	if err != nil {
		return nil, err
	}
	return rp.commit(now)
}

// ReserveAllAtomic is ReserveAtomic against the pool's own brokers.
func (p *Pool) ReserveAllAtomic(now Time, req qos.ResourceVector) (*MultiReservation, error) {
	return ReserveAtomic(now, p.Get, req)
}

// BatchStats is what ReserveBatchAll reports about its members' commits.
type BatchStats struct {
	// StripesLocked is the number of book locks the commits took: one
	// per distinct book of each member that resolved.
	StripesLocked int
}

// ReserveBatchAll commits each requirement vector by itself, as
// ReserveAllAtomic would, and counts the book locks taken. The returned
// slices are parallel to reqs: out[i] is member i's reservation when it
// was admitted, errs[i] its refusal otherwise.
func (p *Pool) ReserveBatchAll(now Time, reqs []qos.ResourceVector) ([]*MultiReservation, []error, BatchStats) {
	out := make([]*MultiReservation, len(reqs))
	errs := make([]error, len(reqs))
	var stats BatchStats
	for i, req := range reqs {
		rp, err := resolvePlan(p.Get, req)
		if err == nil {
			stats.StripesLocked += len(rp.books)
			out[i], err = rp.commit(now)
		}
		errs[i] = err
	}
	return out, errs, stats
}
