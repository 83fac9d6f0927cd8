package broker

import (
	"fmt"
	"sync"
)

// Network is an end-to-end network Resource Broker (section 3). At the
// higher level it treats the network path between two end hosts as one
// resource; at the lower level each link on the route is managed by its
// own RSVP-style bandwidth broker (a *Local). The end-to-end availability
// is the minimum of the link availabilities, and an end-to-end
// reservation reserves the bandwidth on every link of the route,
// rolling back if any link refuses.
//
// Per the paper's RSVP-compatibility note, the broker logically lives on
// the receiver-side host; the Pool records that placement.
type Network struct {
	resource string
	links    []*Local
	// lockOrder is the distinct lock stripes backing the route's links,
	// sorted by stripe acquisition rank — the package-wide multi-lock
	// order. It backs the locked read fallback (see readLockedAll) and
	// the mutation paths; the hot read path validates lock-free instead
	// (see readConsistent).
	lockOrder []*stripe
	// uniq indexes the first occurrence of each distinct link broker on
	// the route (a link can appear several times). Epoch sums iterate it
	// so duplicates count once, without a per-call dedup map.
	uniq []int

	// mu guards the hold table and the α report window of route-minimum
	// values (the same window type Local brokers use, see window.go).
	mu     sync.Mutex
	holds  map[ReservationID]netHold
	nextID ReservationID
	window reportWindow
}

type linkHold struct {
	link *Local
	id   ReservationID
}

// netHold is one live end-to-end reservation: its per-link holds plus
// an optional lease expiry (zero = no lease). The lease lives at the
// network level; the underlying link holds never carry their own.
type netHold struct {
	links  []linkHold
	expiry Time
}

// NewNetwork creates an end-to-end broker over the given link brokers,
// in route order. The route must be non-empty.
func NewNetwork(resource string, links []*Local) (*Network, error) {
	return NewNetworkWindow(resource, links, DefaultAlphaWindow)
}

// NewNetworkWindow creates an end-to-end broker with an explicit α window.
func NewNetworkWindow(resource string, links []*Local, window Time) (*Network, error) {
	if resource == "" {
		return nil, fmt.Errorf("broker: empty resource name")
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("broker: network resource %s has empty route", resource)
	}
	if window <= 0 {
		return nil, fmt.Errorf("broker: network resource %s has non-positive alpha window %g", resource, float64(window))
	}
	ls := make([]*Local, len(links))
	copy(ls, links)
	// Distinct stripes in ascending acquisition-rank order, the only
	// order in which this package ever acquires multiple stripe locks.
	seen := make(map[*stripe]bool, len(ls))
	order := make([]*stripe, 0, len(ls))
	for _, l := range ls {
		if !seen[l.stripe] {
			seen[l.stripe] = true
			order = append(order, l.stripe)
		}
	}
	sortStripes(order)
	// First occurrence of each distinct link broker, for dedup'd epoch
	// sums without per-call allocation.
	seenLink := make(map[*Local]bool, len(ls))
	uniq := make([]int, 0, len(ls))
	for i, l := range ls {
		if !seenLink[l] {
			seenLink[l] = true
			uniq = append(uniq, i)
		}
	}
	return &Network{
		resource:  resource,
		links:     ls,
		lockOrder: order,
		uniq:      uniq,
		holds:     make(map[ReservationID]netHold),
		window:    reportWindow{span: window},
	}, nil
}

// Resource implements Broker.
func (n *Network) Resource() string { return n.resource }

// Links returns the underlying link brokers in route order.
func (n *Network) Links() []*Local {
	out := make([]*Local, len(n.links))
	copy(out, n.links)
	return out
}

// Capacity implements Broker: the minimum link capacity, the most the
// end-to-end resource could ever offer.
func (n *Network) Capacity() float64 {
	min := n.links[0].Capacity()
	for _, l := range n.links[1:] {
		if c := l.Capacity(); c < min {
			min = c
		}
	}
	return min
}

// availAll locks every distinct stripe backing the route (in the
// package-wide ascending acquisition-rank order, so it can never
// deadlock against the atomic commit path) and returns the route
// minimum of read(link) as a consistent snapshot. Reading the links one
// lock at a time instead can yield a torn minimum that no instant ever
// exhibited — e.g. a hold moving atomically from one link to another
// would be seen on neither — which is exactly the stale-but-plausible
// lie that admission must not plan against. The hot path avoids it via
// readConsistent; this remains the fallback and the historical-query
// path.
func (n *Network) availAll(read func(*Local) float64) float64 {
	lockAll(n.lockOrder)
	min := read(n.links[0])
	for _, l := range n.links[1:] {
		if a := read(l); a < min {
			min = a
		}
	}
	unlockAll(n.lockOrder)
	return min
}

// readRetries is how many lock-free consistency attempts a multi-link
// read makes before degrading to the locked fallback. Conflicts require
// a commit racing the read on the same route; back-to-back conflicts on
// every attempt are rare enough that the fallback is effectively never
// taken outside adversarial churn.
const readRetries = 4

// tryReadConsistent makes one seqlock-style attempt at a consistent
// lock-free route read. Pass 1 loads each distinct link's published
// record once, accumulating the route-minimum availability and the
// dedup'd epoch sum; pass 2 re-sums the epochs. Epochs are monotone
// non-decreasing and every mutation strictly increases its link's
// epoch, so sum equality proves no link republished between a link's
// two loads; and since all pass-1 loads happen before all pass-2 loads,
// every link was unchanged across the instant separating the passes —
// the pass-1 values coexisted then, i.e. the (min, epoch-sum) pair is a
// consistent cut that availAll under all locks could also have
// observed. The min over distinct links equals the min over the route:
// duplicates contribute the same availability.
func (n *Network) tryReadConsistent() (min float64, epochSum uint64, ok bool) {
	var sum1 uint64
	for k, i := range n.uniq {
		p := n.links[i].published()
		sum1 += p.epoch
		if k == 0 || p.avail < min {
			min = p.avail
		}
	}
	var sum2 uint64
	for _, i := range n.uniq {
		sum2 += n.links[i].published().epoch
	}
	return min, sum1, sum1 == sum2
}

// readConsistent returns a consistent (route-min availability, dedup'd
// epoch sum) pair: lock-free via tryReadConsistent when a quiet window
// is found within readRetries attempts, otherwise exactly once under
// all route stripes.
func (n *Network) readConsistent() (min float64, epochSum uint64) {
	for r := 0; r < readRetries; r++ {
		if min, epochSum, ok := n.tryReadConsistent(); ok {
			return min, epochSum
		}
	}
	lockAll(n.lockOrder)
	min = n.links[0].availLocked()
	for _, l := range n.links[1:] {
		if a := l.availLocked(); a < min {
			min = a
		}
	}
	for _, i := range n.uniq {
		epochSum += n.links[i].epoch
	}
	unlockAll(n.lockOrder)
	return min, epochSum
}

// Available implements Broker: the minimum of the link availabilities,
// exactly the paper's rule for network Resource Brokers, read as one
// consistent multi-link snapshot — lock-free on the hot path.
func (n *Network) Available() float64 {
	min, _ := n.readConsistent()
	return min
}

// AvailableAt implements Broker over the link change logs, read as a
// consistent multi-link snapshot. Queries at or after every link's last
// mutation — the hot "as of now" case — are answered lock-free: each
// published record then equals its link's log value at asOf, and the
// epoch revalidation in tryReadConsistent proves the records coexisted.
// Genuinely historical queries take the locked log walk.
func (n *Network) AvailableAt(asOf Time) float64 {
	for r := 0; r < readRetries; r++ {
		min, current, ok := n.tryReadConsistentAt(asOf)
		if !current {
			break
		}
		if ok {
			return min
		}
	}
	return n.availAll(func(l *Local) float64 { return l.availableAtLocked(asOf) })
}

// tryReadConsistentAt is tryReadConsistent restricted to records no
// newer than asOf. current=false means some link mutated after asOf and
// the published record cannot answer the query.
func (n *Network) tryReadConsistentAt(asOf Time) (min float64, current, ok bool) {
	var sum1 uint64
	for k, i := range n.uniq {
		p := n.links[i].published()
		if p.at > asOf {
			return 0, false, false
		}
		sum1 += p.epoch
		if k == 0 || p.avail < min {
			min = p.avail
		}
	}
	var sum2 uint64
	for _, i := range n.uniq {
		sum2 += n.links[i].published().epoch
	}
	return min, true, sum1 == sum2
}

// Epoch returns the dedup'd sum of the route links' epochs as a
// wait-free single-pass read. Every link epoch is monotone
// non-decreasing, so two equal sums bracket a route whose every link
// was individually unchanged — sums of monotone components collide only
// when each component is equal. (A torn read across an in-flight commit
// yields a sum that matches no quiescent state; it is still never
// smaller than an earlier one.)
func (n *Network) Epoch() uint64 {
	var sum uint64
	for _, i := range n.uniq {
		sum += n.links[i].published().epoch
	}
	return sum
}

// Report implements Broker. The availability is the route minimum; α is
// computed from this broker's own report history of route-minimum values,
// so it reflects the end-to-end trend rather than any single link's.
// Availability and epoch sum come from one consistent lock-free read.
func (n *Network) Report(now Time) Report {
	avail, epoch := n.readConsistent()
	n.mu.Lock()
	defer n.mu.Unlock()
	alpha := n.window.feed(now, avail)
	return Report{Resource: n.resource, Avail: avail, Alpha: alpha, At: now, Epoch: epoch}
}

// Reserve implements Broker: reserve the amount on every link on the
// route; on any failure roll back the links already reserved and return
// the failing link's error.
func (n *Network) Reserve(now Time, amount float64) (ReservationID, error) {
	if amount < 0 {
		return 0, fmt.Errorf("broker: resource %s: negative reservation %g", n.resource, amount)
	}
	var held []linkHold
	for _, l := range n.links {
		id, err := l.Reserve(now, amount)
		if err != nil {
			n.rollbackLinkHolds(now, held, err)
			return 0, fmt.Errorf("broker: resource %s: link %s refused: %w", n.resource, l.Resource(), err)
		}
		held = append(held, linkHold{link: l, id: id})
	}
	return n.adopt(held), nil
}

// rollbackLinkHolds releases link holds created moments ago by a
// mid-route refusal. These holds were never published in n.holds, so a
// failed release means the hold vanished from its link broker — state
// corruption that would silently leak link bandwidth if ignored. Rather
// than assume "rollback cannot fail", the failure is checked explicitly
// and escalated to a panic carrying the full diagnostic state.
func (n *Network) rollbackLinkHolds(now Time, held []linkHold, cause error) {
	for i := len(held) - 1; i >= 0; i-- {
		h := held[i]
		if err := h.link.Release(now, h.id); err != nil {
			panic(fmt.Sprintf(
				"broker: resource %s: rollback of link %s hold %d failed: %v (refusal being rolled back: %v)",
				n.resource, h.link.Resource(), h.id, err, cause))
		}
	}
}

// adopt publishes a set of per-link holds as one end-to-end
// reservation and returns its ID. The atomic multi-resource commit
// path calls it while still holding the link brokers' stripe locks;
// that is safe because n.mu is only ever acquired after (never before)
// stripe locks anywhere in the package.
func (n *Network) adopt(held []linkHold) ReservationID {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	id := n.nextID
	n.holds[id] = netHold{links: held}
	return id
}

// Release implements Broker.
func (n *Network) Release(now Time, id ReservationID) error {
	n.mu.Lock()
	held, ok := n.holds[id]
	if ok {
		delete(n.holds, id)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("broker: resource %s: reservation %d: %w", n.resource, id, ErrUnknownReservation)
	}
	var firstErr error
	for _, h := range held.links {
		if err := h.link.Release(now, h.id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SetLease implements Leaser for an end-to-end hold. The lease lives on
// the network-level reservation only; the per-link holds it owns stay
// permanent and are released together when the lease expires.
func (n *Network) SetLease(id ReservationID, expiry Time) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.holds[id]
	if !ok {
		return fmt.Errorf("broker: resource %s: reservation %d: %w", n.resource, id, ErrUnknownReservation)
	}
	h.expiry = expiry
	n.holds[id] = h
	return nil
}

// ExpireLeases reclaims every end-to-end hold whose lease expiry is at
// or before now, releasing its per-link holds, and returns the number
// reclaimed. The expired holds are unpublished under n.mu first, so a
// concurrent Release of the same reservation observes
// ErrUnknownReservation rather than a double release.
func (n *Network) ExpireLeases(now Time) int {
	n.mu.Lock()
	var expired []netHold
	for id, h := range n.holds {
		if h.expiry > 0 && h.expiry <= now {
			delete(n.holds, id)
			expired = append(expired, h)
		}
	}
	n.mu.Unlock()
	for _, h := range expired {
		for _, lh := range h.links {
			// The link holds are permanent (no lease of their own) and
			// unpublished, so release cannot race anything.
			_ = lh.link.Release(now, lh.id)
		}
	}
	return len(expired)
}

// Reservations returns the number of live end-to-end reservations.
func (n *Network) Reservations() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.holds)
}
