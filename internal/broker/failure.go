package broker

import "fmt"

// This file is the failure-and-lease surface of the broker layer, used
// by the fault injector (internal/fault) and the session-repair loop
// (internal/proxy):
//
//   - A broker can fail and recover. A failed broker reports zero
//     availability and refuses new reservations, but keeps its book of
//     holds: the holds no longer deliver any QoS (the physical resource
//     is gone), and it is the repair layer's job to release them and
//     re-plan the affected sessions. Keeping the book means Release
//     stays well-defined across a failure, so teardown never has to
//     special-case a down resource.
//
//   - A broker's capacity can shrink and restore (a capacity collapse:
//     partial hardware loss, an operator drain, a competing tenant).
//     Shrinking never evicts holds — the reserved total may transiently
//     exceed the new capacity — but the availability turns negative, so
//     the validate-at-commit path admits nothing further until repair
//     releases the overhang. New commits therefore never over-commit
//     beyond the capacity in force at commit time.
//
//   - A hold can carry a lease: an expiry renewed by the owning
//     session's heartbeat. ExpireLeases reclaims holds whose expiry has
//     passed, so a crashed main QoSProxy can never strand capacity
//     forever. Renewal and expiry race benignly: whichever takes the
//     broker's lock first wins, and a renewal that loses observes
//     ErrUnknownReservation — the signal that the session lost its
//     reservation and must re-establish it.

// Fail marks the resource as down: availability reports zero and new
// reservations are refused until Recover. Existing holds are preserved.
// Failing an already-failed broker is a no-op.
func (b *Local) Fail(now Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed {
		return
	}
	b.failed = true
	b.logChangeLocked(now)
}

// Recover clears the failure, restoring the availability that the book
// of holds implies. Recovering a healthy broker is a no-op.
func (b *Local) Recover(now Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.failed {
		return
	}
	b.failed = false
	b.logChangeLocked(now)
}

// SetCapacity changes the total amount of the resource in force —
// shrinking models a capacity collapse, restoring a repair. Holds are
// never evicted: after a shrink below the reserved total the
// availability is negative and admission refuses everything until the
// repair layer releases the overhanging holds.
func (b *Local) SetCapacity(now Time, capacity float64) error {
	if capacity < 0 {
		return fmt.Errorf("broker: resource %s: negative capacity %g", b.resource, capacity)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = capacity
	b.logChangeLocked(now)
	return nil
}

// setLease sets (or renews) the expiry of a live hold. A zero expiry
// removes the lease, making the hold permanent again.
func (b *Local) setLease(id ReservationID, expiry Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[id]
	if !ok {
		return fmt.Errorf("broker: resource %s: reservation %d: %w", b.resource, id, ErrUnknownReservation)
	}
	h.expiry = expiry
	b.holds[id] = h
	return nil
}

// ExpireLeases releases every leased hold whose expiry is at or before
// now and returns the number reclaimed. Holds without a lease (expiry
// zero) are never touched. A leased network reservation's link holds
// each carry the lease, so the sweep of each link reclaims its share.
func (b *Local) ExpireLeases(now Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for id, h := range b.holds {
		if h.expiry > 0 && h.expiry <= now {
			delete(b.holds, id)
			b.reserved -= h.amount
			n++
		}
	}
	if n > 0 {
		if b.reserved < 0 {
			b.reserved = 0
		}
		b.logChangeLocked(now)
	}
	return n
}
