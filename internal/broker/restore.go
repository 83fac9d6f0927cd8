package broker

import "fmt"

// This file is the crash-recovery surface of the broker layer, used by
// the WAL replay path (proxy.Runtime.Recover / CrashRestart):
//
//   - A live reservation can export its holds — resource, reservation
//     ID, amount, lease expiry, and (for network parts) the per-link
//     holds — into plain values a write-ahead log can journal.
//
//   - A book can be wiped (crash amnesia: the in-memory state a dead
//     process forgets) and holds restored from exports with their exact
//     original IDs, so a replayed book is byte-identical to the
//     pre-crash one and coordinator-side handles keep working.
//
// Restore is idempotent per ID: re-restoring a hold that already exists
// is a no-op, which is what makes single-host recovery correct — a host
// crash wipes only the brokers that host owns, while link brokers
// (owned by no host) keep their holds, and the network restore must
// reattach to them rather than double-reserve.

// LinkExport identifies one per-link hold of a network reservation.
type LinkExport struct {
	Resource string
	ID       ReservationID
}

// HoldExport is one hold of a reservation in journalable form.
type HoldExport struct {
	Resource string
	ID       ReservationID
	Amount   float64
	Expiry   Time
	Links    []LinkExport
}

// Export returns the reservation's holds as journalable exports, in
// part order. Amounts and expiries are read under the owning brokers'
// locks; for a network part the amount is the common per-link amount.
func (m *MultiReservation) Export() []HoldExport {
	out := make([]HoldExport, 0, len(m.parts))
	for _, p := range m.parts {
		switch br := p.broker.(type) {
		case *Local:
			if ex, ok := br.exportHold(p.id); ok {
				out = append(out, ex)
			}
		case *Network:
			if ex, ok := br.exportHold(p.id); ok {
				out = append(out, ex)
			}
		}
	}
	return out
}

// exportHold snapshots one local hold.
func (b *Local) exportHold(id ReservationID) (HoldExport, bool) {
	b.stripe.Lock()
	defer b.stripe.Unlock()
	h, ok := b.holds[id]
	if !ok {
		return HoldExport{}, false
	}
	return HoldExport{Resource: b.resource, ID: id, Amount: h.amount, Expiry: h.expiry}, true
}

// exportHold snapshots one end-to-end hold with its link holds. The
// per-link amount is read after dropping n.mu (stripe locks are never
// taken under it).
func (n *Network) exportHold(id ReservationID) (HoldExport, bool) {
	n.mu.Lock()
	h, ok := n.holds[id]
	if !ok {
		n.mu.Unlock()
		return HoldExport{}, false
	}
	links := make([]LinkExport, len(h.links))
	held := make([]linkHold, len(h.links))
	copy(held, h.links)
	for i, lh := range h.links {
		links[i] = LinkExport{Resource: lh.link.resource, ID: lh.id}
	}
	expiry := h.expiry
	n.mu.Unlock()
	amount := 0.0
	if len(held) > 0 {
		if ex, ok := held[0].link.exportHold(held[0].id); ok {
			amount = ex.Amount
		}
	}
	return HoldExport{Resource: n.resource, ID: id, Amount: amount, Expiry: expiry, Links: links}, true
}

// RestoreHold re-creates a hold with its exact original ID, bumping the
// ID allocator past it so future holds never collide. Restoring an ID
// that is already held is a no-op (idempotent replay).
func (b *Local) RestoreHold(now Time, id ReservationID, amount float64, expiry Time) error {
	if amount < 0 {
		return fmt.Errorf("broker: resource %s: restore: negative amount %g", b.resource, amount)
	}
	if id == 0 {
		return fmt.Errorf("broker: resource %s: restore: zero reservation ID", b.resource)
	}
	b.stripe.Lock()
	defer b.stripe.Unlock()
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

// RestoreHold re-creates an end-to-end hold from its export: each link
// hold is restored (or reattached, if it survived — link brokers are
// owned by no host, so a host crash leaves them intact) with its exact
// ID, then the network-level hold is republished under the original
// network reservation ID. Idempotent per ID.
func (n *Network) RestoreHold(now Time, ex HoldExport) error {
	if ex.ID == 0 {
		return fmt.Errorf("broker: resource %s: restore: zero reservation ID", n.resource)
	}
	byRes := make(map[string]*Local, len(n.links))
	for _, l := range n.links {
		byRes[l.resource] = l
	}
	held := make([]linkHold, 0, len(ex.Links))
	for _, le := range ex.Links {
		l, ok := byRes[le.Resource]
		if !ok {
			return fmt.Errorf("broker: resource %s: restore: link %s not on route", n.resource, le.Resource)
		}
		// Link holds never carry a lease of their own (the network-level
		// lease governs them), hence expiry zero.
		if err := l.RestoreHold(now, le.ID, ex.Amount, 0); err != nil {
			return err
		}
		held = append(held, linkHold{link: l, id: le.ID})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ex.ID > n.nextID {
		n.nextID = ex.ID
	}
	if _, exists := n.holds[ex.ID]; exists {
		return nil
	}
	n.holds[ex.ID] = netHold{links: held, expiry: ex.Expiry}
	return nil
}

// Wipe models crash amnesia: the book forgets every hold without
// releasing anything. The ID allocator is NOT reset, so holds created
// after the wipe can never collide with IDs a later replay restores.
func (b *Local) Wipe(now Time) {
	b.stripe.Lock()
	defer b.stripe.Unlock()
	if len(b.holds) == 0 && b.reserved == 0 {
		return
	}
	b.holds = make(map[ReservationID]hold)
	b.reserved = 0
	b.logChangeLocked(now)
}

// Wipe models crash amnesia for the end-to-end book: the network-level
// holds are forgotten WITHOUT releasing their link holds — the link
// brokers live outside the crashed host and genuinely keep their
// bandwidth reserved, which is exactly the leak that replay (or the
// lease sweep) must repair.
func (n *Network) Wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.holds = make(map[ReservationID]netHold)
}

// ReleaseStranded releases the link holds of an end-to-end reservation
// whose network-level hold is no longer live and returns how many it
// freed. A teardown that races a crash finds the network-level hold
// wiped and releases nothing, yet journals the release — so replay
// restores no owner for link holds that survived the wipe. Replay
// retires every ID its log names before serving (RetireIDs), so link
// hold IDs are never reused and a listed hold that still exists can
// only be one of those strays. A live reservation is left alone.
func (n *Network) ReleaseStranded(now Time, ex HoldExport) int {
	n.mu.Lock()
	_, live := n.holds[ex.ID]
	n.mu.Unlock()
	if live {
		return 0
	}
	freed := 0
	for _, le := range ex.Links {
		for _, l := range n.links {
			if l.resource == le.Resource {
				if l.Release(now, le.ID) == nil {
					freed++
				}
				break
			}
		}
	}
	return freed
}

// RetireID bumps the ID allocator past id without creating a hold.
// Replay calls it for every ID the log names, live or released: a fresh
// process starts its allocators at zero, and restoring only the live
// holds would let it hand out IDs that older records still name.
func (b *Local) RetireID(id ReservationID) {
	b.stripe.Lock()
	if id > b.nextID {
		b.nextID = id
	}
	b.stripe.Unlock()
}

// RetireIDs retires an end-to-end export's network-level ID and the ID
// of each of its link holds on this route.
func (n *Network) RetireIDs(ex HoldExport) {
	n.mu.Lock()
	if ex.ID > n.nextID {
		n.nextID = ex.ID
	}
	n.mu.Unlock()
	for _, le := range ex.Links {
		for _, l := range n.links {
			if l.resource == le.Resource {
				l.RetireID(le.ID)
				break
			}
		}
	}
}

// RestoreMulti rebuilds a reservation from its journaled exports,
// resolving each resource through the supplied lookup (typically a
// host's deployed-broker table). Holds come back with their exact
// original IDs; leased marks the result as lease-governed so Release
// tolerates parts already reclaimed by a sweep.
func RestoreMulti(now Time, resolve func(string) (Broker, bool), exports []HoldExport, leased bool) (*MultiReservation, error) {
	m := &MultiReservation{leased: leased}
	for _, ex := range exports {
		b, ok := resolve(ex.Resource)
		if !ok {
			return nil, fmt.Errorf("broker: restore of unknown resource %s", ex.Resource)
		}
		switch br := b.(type) {
		case *Local:
			if err := br.RestoreHold(now, ex.ID, ex.Amount, ex.Expiry); err != nil {
				return nil, err
			}
		case *Network:
			if err := br.RestoreHold(now, ex); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("broker: resource %s: %T does not support restore", ex.Resource, b)
		}
		m.parts = append(m.parts, multiPart{broker: b, id: ex.ID})
	}
	return m, nil
}
