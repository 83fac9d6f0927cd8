package broker

import "fmt"

// This file is the crash-recovery surface of the broker layer, used by
// the WAL replay path (proxy.Runtime.Recover / CrashRestart):
//
//   - A live reservation can export its holds — resource, reservation
//     ID, amount and lease expiry — into plain values a write-ahead log
//     can journal. Every hold is a Local hold; a network reservation
//     exports one hold per route link.
//
//   - A book can be wiped (crash amnesia: the in-memory state a dead
//     process forgets) and holds restored from exports with their exact
//     original IDs, so a replayed book is byte-identical to the
//     pre-crash one and coordinator-side handles keep working.
//
// Restore is idempotent per ID: re-restoring a hold that already exists
// is a no-op. A host crash wipes only the brokers that host owns; link
// brokers (owned by no host) keep their holds, and replay reattaches to
// the ones still there instead of re-creating them (see RestoreMulti).

// HoldExport is one hold of a reservation in journalable form.
type HoldExport struct {
	Resource string
	ID       ReservationID
	Amount   float64
	Expiry   Time
}

// Export returns the reservation's holds as journalable exports, in
// part order. Amounts and expiries are read under the owning brokers'
// locks; a hold already reclaimed by a lease sweep is skipped.
func (m *MultiReservation) Export() []HoldExport {
	out := make([]HoldExport, 0, len(m.parts))
	for _, p := range m.parts {
		if ex, ok := p.broker.exportHold(p.id); ok {
			out = append(out, ex)
		}
	}
	return out
}

// exportHold snapshots one local hold.
func (b *Local) exportHold(id ReservationID) (HoldExport, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[id]
	if !ok {
		return HoldExport{}, false
	}
	return HoldExport{Resource: b.resource, ID: id, Amount: h.amount, Expiry: h.expiry}, true
}

// restoreHold re-creates a hold with its exact original ID, bumping the
// ID allocator past it so future holds never collide. Restoring an ID
// that is already held is a no-op (idempotent replay).
func (b *Local) restoreHold(now Time, id ReservationID, amount float64, expiry Time) error {
	if amount < 0 {
		return fmt.Errorf("broker: resource %s: restore: negative amount %g", b.resource, amount)
	}
	if id == 0 {
		return fmt.Errorf("broker: resource %s: restore: zero reservation ID", b.resource)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if id > b.nextID {
		b.nextID = id
	}
	if _, exists := b.holds[id]; exists {
		return nil
	}
	b.holds[id] = hold{amount: amount, expiry: expiry}
	b.reserved += amount
	b.logChangeLocked(now)
	return nil
}

// Wipe models crash amnesia: the book forgets every hold without
// releasing anything. The ID allocator is NOT reset, so holds created
// after the wipe can never collide with IDs a later replay restores.
func (b *Local) Wipe(now Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.holds) == 0 && b.reserved == 0 {
		return
	}
	b.holds = make(map[ReservationID]hold)
	b.reserved = 0
	b.logChangeLocked(now)
}

// RetireID bumps the ID allocator past id without creating a hold.
// Replay calls it for every ID the log names, live or released: a fresh
// process starts its allocators at zero, and restoring only the live
// holds would let it hand out IDs that older records still name.
func (b *Local) RetireID(id ReservationID) {
	b.mu.Lock()
	if id > b.nextID {
		b.nextID = id
	}
	b.mu.Unlock()
}

// RestoreMulti rebuilds a reservation from its journaled exports,
// resolving each resource through the supplied lookup (typically a
// host's own brokers plus the links under its network brokers). ok
// false means the resource is unknown; survived true means its book
// outlived the crash being recovered from — a link broker when a single
// host restarts. Holds on a wiped book come back with their exact
// original IDs. Holds on a surviving book are only reattached: one
// still in the book joins the reservation, and one that is gone was
// released or swept while the host was down and stays gone — re-creating
// it would hold capacity a concurrent admission may already have taken.
// leased marks the result as lease-governed so Release tolerates parts
// already reclaimed by a sweep.
func RestoreMulti(now Time, resolve func(string) (b *Local, survived, ok bool), exports []HoldExport, leased bool) (*MultiReservation, error) {
	m := &MultiReservation{parts: make([]multiPart, 0, len(exports)), leased: leased}
	for _, ex := range exports {
		b, survived, ok := resolve(ex.Resource)
		if !ok {
			return nil, fmt.Errorf("broker: restore of unknown resource %s", ex.Resource)
		}
		if survived {
			if _, held := b.exportHold(ex.ID); !held {
				continue
			}
		} else if err := b.restoreHold(now, ex.ID, ex.Amount, ex.Expiry); err != nil {
			return nil, err
		}
		m.parts = append(m.parts, multiPart{broker: b, id: ex.ID})
	}
	return m, nil
}
