package broker

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Network is the end-to-end network Resource Broker of section 3, as a
// read-only view. At the higher level it treats the network path
// between two end hosts as one resource; at the lower level each link on
// the route is managed by its own RSVP-style bandwidth broker (a
// *Local), and those hold the bandwidth. The end-to-end availability is
// the minimum of the link availabilities, read lock-free, and α is kept
// over those route minima. Network holds nothing: a commit expands a
// requirement on the path into one hold of the same amount on every
// link of the route (see resolvePlan), so an end-to-end reservation is
// its link holds.
//
// Per the paper's RSVP-compatibility note, the broker logically lives on
// the receiver-side host; the Pool records that placement.
type Network struct {
	resource string
	links    []*Local
	// books are the route's distinct link brokers (a link can appear
	// several times) in ascending seq, the package-wide lock order. The
	// locked read fallbacks lock them (see availAll); the lock-free reads
	// load each once, so epoch sums count a repeated link once.
	books []*Local

	// mu guards the α report window of route-minimum values (the same
	// window type Local brokers use, see window.go).
	mu     sync.Mutex
	window reportWindow
}

// NewNetwork creates an end-to-end broker over the given link brokers,
// in route order, with the default α window. The route must be
// non-empty.
func NewNetwork(resource string, links []*Local) (*Network, error) {
	return newNetwork(resource, links, DefaultAlphaWindow)
}

// newNetwork creates an end-to-end broker with an explicit α window.
func newNetwork(resource string, links []*Local, window Time) (*Network, error) {
	if resource == "" {
		return nil, fmt.Errorf("broker: empty resource name")
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("broker: network resource %s has empty route", resource)
	}
	if window <= 0 {
		return nil, fmt.Errorf("broker: network resource %s has non-positive alpha window %g", resource, float64(window))
	}
	books := slices.Clone(links)
	slices.SortFunc(books, func(a, b *Local) int { return cmp.Compare(a.seq, b.seq) })
	return &Network{
		resource: resource,
		links:    slices.Clone(links),
		books:    slices.Compact(books),
		window:   reportWindow{span: window},
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

// availAll locks every distinct book of the route (in the package-wide
// ascending seq order, so it can never deadlock against the atomic
// commit path) and returns the route minimum of read(link) as a
// consistent snapshot. Reading the links one
// lock at a time instead can yield a torn minimum that no instant ever
// exhibited — e.g. a hold moving atomically from one link to another
// would be seen on neither — which is exactly the stale-but-plausible
// lie that admission must not plan against. The hot path avoids it via
// readConsistent; this remains the historical-query path.
func (n *Network) availAll(read func(*Local) float64) float64 {
	lockAll(n.books)
	min := read(n.books[0])
	for _, l := range n.books[1:] {
		if a := read(l); a < min {
			min = a
		}
	}
	unlockAll(n.books)
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
	for k, l := range n.books {
		p := l.published()
		sum1 += p.epoch
		if k == 0 || p.avail < min {
			min = p.avail
		}
	}
	var sum2 uint64
	for _, l := range n.books {
		sum2 += l.published().epoch
	}
	return min, sum1, sum1 == sum2
}

// readConsistent returns a consistent (route-min availability, dedup'd
// epoch sum) pair: lock-free via tryReadConsistent when a quiet window
// is found within readRetries attempts, otherwise exactly once under
// all route books.
func (n *Network) readConsistent() (min float64, epochSum uint64) {
	for r := 0; r < readRetries; r++ {
		if min, epochSum, ok := n.tryReadConsistent(); ok {
			return min, epochSum
		}
	}
	lockAll(n.books)
	min = n.books[0].availLocked()
	for _, l := range n.books {
		if a := l.availLocked(); a < min {
			min = a
		}
		epochSum += l.epoch
	}
	unlockAll(n.books)
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
	for k, l := range n.books {
		p := l.published()
		if p.at > asOf {
			return 0, false, false
		}
		sum1 += p.epoch
		if k == 0 || p.avail < min {
			min = p.avail
		}
	}
	var sum2 uint64
	for _, l := range n.books {
		sum2 += l.published().epoch
	}
	return min, true, sum1 == sum2
}

// lockAll locks the given books, which must be distinct and in
// ascending seq.
func lockAll(books []*Local) {
	for _, l := range books {
		l.mu.Lock()
	}
}

// unlockAll unlocks books locked by lockAll, in reverse order.
func unlockAll(books []*Local) {
	for i := len(books) - 1; i >= 0; i-- {
		books[i].mu.Unlock()
	}
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
