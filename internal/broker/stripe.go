package broker

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// This file shards the reservation books across lock stripes. Every
// Local broker is backed by exactly one stripe — possibly shared with
// other brokers of its pool — and all book mutations happen under the
// stripe's mutex. Striping decouples the number of brokers from the
// number of locks: a pool with thousands of resources contends on a
// fixed set of stripes, and the multi-broker commit path (ReserveBatch,
// ReserveAtomic, Network.availAll) acquires each distinct stripe once
// no matter how many of its brokers a plan touches.
//
// Lock ordering. Each stripe carries a globally unique, monotonically
// assigned acquisition rank (order). Any code path holding more than
// one stripe sorts the distinct stripes by that rank first — a total,
// strict-weak order even when brokers share a resource ID or live in
// different pools, which the old ascending-resource-ID order could not
// guarantee (two distinct brokers with the same ID left the order
// unspecified, an invitation to deadlock).
//
// Epochs. Every stripe and every broker carries an epoch counter,
// bumped (under the stripe lock) on each availability-affecting book
// mutation. Epochs stamp availability reports (Report.Epoch) so
// consumers can tell whether the books moved between two observations —
// they gate metrics and assertions, never validation: a commit always
// re-validates against the live book.

// stripe is one lock shard of the reservation books.
type stripe struct {
	// order is the stripe's globally unique acquisition rank; multi-
	// stripe paths lock in ascending order.
	order uint64

	sync.Mutex

	// epoch counts availability-affecting mutations of any broker on
	// this stripe. Guarded by the mutex.
	epoch uint64
}

// stripeOrder mints globally unique acquisition ranks, so stripes of
// different StripeSets (or standalone brokers) still sort totally.
var stripeOrder atomic.Uint64

// localSeq mints per-process registration indexes for Local brokers:
// the deterministic tie-break when two brokers share a resource ID.
var localSeq atomic.Uint64

func newStripe() *stripe {
	return &stripe{order: stripeOrder.Add(1)}
}

// DefaultStripes is the stripe count of a pool that does not choose its
// own: enough shards that unrelated hot resources rarely collide, few
// enough that a batch round's lock sweep stays short.
const DefaultStripes = 32

// StripeSet is a fixed pool of stripes that brokers are hashed onto by
// resource ID. Safe for concurrent use after construction.
type StripeSet struct {
	stripes []*stripe
}

// NewStripeSet creates n stripes (minimum 1).
func NewStripeSet(n int) *StripeSet {
	if n < 1 {
		n = 1
	}
	s := &StripeSet{stripes: make([]*stripe, n)}
	for i := range s.stripes {
		s.stripes[i] = newStripe()
	}
	return s
}

// Size returns the number of stripes.
func (s *StripeSet) Size() int { return len(s.stripes) }

// forResource returns the stripe a resource ID hashes onto.
func (s *StripeSet) forResource(resource string) *stripe {
	h := fnv.New32a()
	h.Write([]byte(resource))
	return s.stripes[h.Sum32()%uint32(len(s.stripes))]
}

// sortStripes orders distinct stripes by acquisition rank, in place.
func sortStripes(ss []*stripe) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].order < ss[j-1].order; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// lockAll acquires the given stripes, which must be distinct and sorted
// by acquisition rank.
func lockAll(ss []*stripe) {
	for _, s := range ss {
		s.Lock()
	}
}

// unlockAll releases stripes locked by lockAll, in reverse order.
func unlockAll(ss []*stripe) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].Unlock()
	}
}

// Epoch returns the broker's availability epoch: the number of book
// mutations (reserves, releases, lease expiries, failure and capacity
// transitions) it has undergone. Two equal epochs bracket an unchanged
// book.
func (b *Local) Epoch() uint64 {
	return b.published().epoch
}

// StripeOrder exposes the broker's stripe acquisition rank for tests
// asserting the multi-lock order is total.
func (b *Local) StripeOrder() uint64 { return b.stripe.order }
