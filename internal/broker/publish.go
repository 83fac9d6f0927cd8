package broker

// This file is the wait-free read side of the broker layer. Every Local
// broker publishes its externally observable book state — availability,
// capacity, epoch, failure flag, and the instant of the last mutation —
// as an immutable record behind an atomic pointer, replaced (never
// mutated) at the end of every locked book mutation. Hot-path reads
// (Available, AvailableAt(now), Report, Capacity) load the
// record and never touch the book locks, so the plan-side read path
// scales independently of the commit side.
//
// Consistency. A single atomic load yields an internally consistent
// record: availability, epoch, and failure flag all from the same book
// state. Records are stored under the book lock in strictly
// increasing epoch order, and Go's atomics are sequentially consistent,
// so any reader observes a non-decreasing sequence of epochs — an
// observation can be stale, never torn and never travelling backwards.
// Multi-link consistency for Network brokers is layered on top with a
// seqlock-style epoch revalidation (see network.go). Exactness is still
// enforced only at validate-at-commit, which always re-reads the books
// under their locks.
//
// The α report window is off the book lock too: it lives under a small
// per-broker mutex (alphaMu) as a reportWindow — samples in arrival
// order behind a head index, with a running sum that eviction subtracts
// from (window.go has the rules for when it is re-summed). Feeding the
// window on every snapshot query — the paper's protocol, preserved —
// costs a short lock and amortised O(1) work however many reports the
// window holds.

// pubRecord is one published book state. Immutable once stored.
type pubRecord struct {
	// avail is capacity - reserved, or 0 while failed (availLocked).
	avail float64
	// capacity is the capacity in force.
	capacity float64
	// at is the instant of the mutation that produced this record.
	at Time
	// epoch is the broker's mutation count at publication.
	epoch uint64
	// failed mirrors the failure flag.
	failed bool
}

// publishLocked replaces the broker's published record with the current
// book state. Callers must hold the book lock; now is the instant of
// the mutation being published.
func (b *Local) publishLocked(now Time) {
	b.pub.Store(&pubRecord{
		avail:    b.availLocked(),
		capacity: b.capacity,
		at:       now,
		epoch:    b.epoch,
		failed:   b.failed,
	})
}

// published returns the current record. It is never nil: construction
// publishes the initial book state.
func (b *Local) published() *pubRecord { return b.pub.Load() }
