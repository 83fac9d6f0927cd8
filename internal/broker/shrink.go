package broker

import (
	"errors"
	"fmt"

	"qosres/internal/qos"
)

// This file is the delta-renegotiation surface of the broker layer: a
// live hold can be shrunk in place to a smaller amount without ever
// passing through a released state. Shrinking only returns capacity, so
// it needs no availability validation and can never be refused — which
// is what lets a mid-session downgrade release surplus whole while the
// session keeps its (reduced) reservation continuously. Growth is
// deliberately not offered here: an upgrade reserves its delta as a
// fresh hold through the validated 2PC path instead, so a failed
// upgrade leaves the old holds untouched.

// shrink reduces a live hold to newAmount, keeping its ID and lease
// expiry. newAmount <= 0 releases the hold whole; newAmount at or above
// the current amount is a no-op (a shrink never grows).
func (b *Local) shrink(now Time, id ReservationID, newAmount float64) error {
	if newAmount <= 0 {
		return b.Release(now, id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[id]
	if !ok {
		return fmt.Errorf("broker: resource %s: reservation %d: %w", b.resource, id, ErrUnknownReservation)
	}
	if newAmount >= h.amount {
		return nil
	}
	b.holds[id] = hold{amount: newAmount, expiry: h.expiry}
	b.reserved -= h.amount - newAmount
	if b.reserved < 0 {
		b.reserved = 0
	}
	b.logChangeLocked(now)
	return nil
}

// ShrinkTo reduces the reservation to at most the budgeted amount per
// resource: each hold keeps min(current, remaining budget) and the
// budget DRAINS IN PLACE in part order, so two holds on the same
// resource (a renegotiated session's kept hold plus its delta, or the
// holds of two routes sharing a link) share one budget — callers
// spanning several reservations pass the same vector through each. The
// budget is per Local broker (see Demand). Holds whose keep reaches
// zero are released and dropped from the set. Resources absent from the
// budget keep nothing. Like Release, a leased reservation tolerates
// holds a concurrent sweep already reclaimed.
func (m *MultiReservation) ShrinkTo(now Time, budget qos.ResourceVector) error {
	remaining := budget
	var firstErr error
	kept := m.parts[:0]
	for _, p := range m.parts {
		resource := p.broker.resource
		ex, ok := p.broker.exportHold(p.id)
		if !ok {
			if !m.leased && firstErr == nil {
				firstErr = fmt.Errorf("broker: resource %s: reservation %d: %w", resource, p.id, ErrUnknownReservation)
			}
			continue // reclaimed by a sweep; nothing left to shrink
		}
		keep := remaining[resource]
		if keep > ex.Amount {
			keep = ex.Amount
		}
		if keep > 0 {
			remaining[resource] -= keep
		}
		if err := p.broker.shrink(now, p.id, keep); err != nil {
			if m.leased && errors.Is(err, ErrUnknownReservation) {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			kept = append(kept, p)
			continue
		}
		if keep > 0 {
			kept = append(kept, p)
		}
	}
	m.parts = kept
	return firstErr
}
