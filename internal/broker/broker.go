// Package broker implements the Resource Brokers of section 3 of the
// paper. A Resource Broker makes and enforces reservations for one
// resource, reports the resource's current availability, and — for the
// tradeoff policy of section 4.3.1 — reports an Availability Change Index
// α = r_avail / r_avg computed over a sliding window of past reports.
//
// Two kinds of broker are provided, mirroring the paper's two-level
// management of network resources — two levels for reading, one for
// holding:
//
//   - Local brokers manage a host-local resource (CPU, memory, disk I/O
//     bandwidth) or a single network link (the RSVP-enabled bandwidth
//     broker of a router). Every hold in the package lives in a Local
//     broker's book.
//   - Network brokers are read-only views of an end-to-end network
//     resource between two hosts over the per-link bandwidth brokers
//     along the route. The reported availability is the minimum of the
//     link availabilities; a reservation of the path is one hold of the
//     same amount on every link of the route.
//
// Every Local broker guards its own book with its own lock, and a
// reservation over several books has exactly one commit, ReserveAtomic:
// it locks the distinct books in ascending registration rank, validates
// the plan's whole demand and only then creates its holds (see
// atomic.go). Reads never lock a book: each mutation republishes the
// book's observable state (see publish.go).
//
// Brokers additionally record an availability change log so that
// observations can be replayed "as of" an earlier time, supporting the
// paper's study of inaccurate resource availability observations
// (section 5.2.4). The log trims itself to a retention horizon fixed at
// construction (see changelog.go).
package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Time is simulation time in the paper's abstract Time Units (TUs).
type Time float64

// ReservationID identifies a reservation held at a broker.
type ReservationID uint64

// ErrInsufficient is returned when a reservation asks for more than the
// resource's current availability.
var ErrInsufficient = errors.New("broker: insufficient availability")

// ErrUnknownReservation is returned when terminating a reservation the
// broker does not hold.
var ErrUnknownReservation = errors.New("broker: unknown reservation")

// Report is what a broker tells a querying QoSProxy: the current
// availability and the availability change index α of equation (5).
// α >= 1 means the availability trend is "up" or "unchanged"; α < 1 means
// the trend is "down". Epoch stamps the observation with the broker's
// book epoch — its count of availability-affecting mutations — so
// consumers can tell whether the book moved between two reports; for
// network brokers it is the sum of the route links' epochs.
type Report struct {
	Resource string
	Avail    float64
	Alpha    float64
	At       Time
	Epoch    uint64
}

// Broker is the read side of a Resource Broker (section 3): what a
// QoSProxy asks of every resource it plans over. Reservations are made
// and terminated on Local brokers (Local.Reserve, Local.Release, and
// ReserveAtomic, which expands a Network to its links).
type Broker interface {
	// Resource returns the broker's resource ID, unique in its Pool.
	Resource() string
	// Capacity returns the total amount of the resource.
	Capacity() float64
	// Available returns the current unreserved amount.
	Available() float64
	// AvailableAt returns the availability as of an earlier instant, for
	// stale-observation studies. Times before the broker existed report
	// the full capacity.
	AvailableAt(asOf Time) float64
	// Report returns availability plus the change index α, and folds the
	// report into the α averaging window.
	Report(now Time) Report
}

// DefaultAlphaWindow is the paper's report-averaging window T for the
// tradeoff policy: "each Resource Broker keeps an average r_avg of
// r_avail values reported during the past 3 time units".
const DefaultAlphaWindow Time = 3

// availSample is an availability observed at an instant: one entry of
// the availability change log, or one past report in the α window.
type availSample struct {
	at    Time
	avail float64
}

// hold is one live reservation at a Local broker. A zero expiry means
// the hold has no lease and lives until released; a positive expiry
// makes the hold a lease that ExpireLeases reclaims once the expiry has
// passed (see failure.go).
type hold struct {
	amount float64
	expiry Time
}

// Local is a Resource Broker for a single local resource or network link.
// It is safe for concurrent use. It guards its own book with its own
// mutex: the book fields below mu are guarded by it. A path that locks
// several books (ReserveAtomic, and a Network's locked reads) locks the
// distinct books in ascending seq, so the lock order is total across
// pools and for brokers sharing a resource ID. Read-side queries never
// take mu: the externally observable state is republished as an
// immutable record behind pub at the end of every mutation (see
// publish.go), and the α report window lives under its own small mutex.
type Local struct {
	resource string
	capacity float64
	// seq is the broker's process-wide registration rank: the order in
	// which multi-book paths lock books, and so the tie-break when two
	// distinct brokers share a resource ID. Immutable after
	// construction.
	seq uint64

	mu       sync.Mutex
	reserved float64
	holds    map[ReservationID]hold
	nextID   ReservationID
	log      changeLog
	// epoch counts this broker's availability-affecting mutations.
	epoch uint64
	// failed marks the resource as down (a fault-injected or observed
	// outage): availability reports zero and new reservations are
	// refused, while the book of existing holds is preserved so the
	// repair layer can release them in an orderly way. See failure.go.
	failed bool

	// pub is the atomically published book state, replaced under mu at
	// the end of every mutation and at construction. Hot-path reads
	// load it instead of locking the book.
	pub atomic.Pointer[pubRecord]

	// alphaMu guards the α report window. It is deliberately separate
	// from mu: feeding the window is a read-side concern and must not
	// contend with commits.
	alphaMu sync.Mutex
	window  reportWindow
}

// localSeq mints the process-wide registration ranks of Local brokers.
var localSeq atomic.Uint64

// NewLocal creates a broker for the named resource with the given total
// capacity and the default α window, keeping its whole change history.
func NewLocal(resource string, capacity float64) (*Local, error) {
	return newLocal(resource, capacity, DefaultAlphaWindow, keepAllHistory)
}

// newLocal creates a broker with an explicit α averaging window whose
// change log answers AvailableAt queries up to history old.
func newLocal(resource string, capacity float64, window, history Time) (*Local, error) {
	if resource == "" {
		return nil, fmt.Errorf("broker: empty resource name")
	}
	if capacity < 0 {
		return nil, fmt.Errorf("broker: resource %s has negative capacity %g", resource, capacity)
	}
	if window <= 0 {
		return nil, fmt.Errorf("broker: resource %s has non-positive alpha window %g", resource, float64(window))
	}
	if history < 0 {
		return nil, fmt.Errorf("broker: resource %s has negative history horizon %g", resource, float64(history))
	}
	b := &Local{
		resource: resource,
		capacity: capacity,
		seq:      localSeq.Add(1),
		holds:    make(map[ReservationID]hold),
		log:      newChangeLog(history, capacity),
		window:   reportWindow{span: window},
	}
	b.pub.Store(&pubRecord{avail: capacity, capacity: capacity})
	return b, nil
}

// Resource implements Broker.
func (b *Local) Resource() string { return b.resource }

// Capacity implements Broker. With fault injection the capacity can
// shrink and recover over time (see SetCapacity); Capacity reports the
// amount currently in force. Wait-free.
func (b *Local) Capacity() float64 {
	return b.published().capacity
}

// availLocked is the single source of truth for current availability: a
// failed resource offers nothing, a live one offers capacity minus the
// reserved total (which can be negative after a capacity collapse, until
// the repair layer releases the overhanging holds). Callers must hold
// the book lock.
func (b *Local) availLocked() float64 {
	if b.failed {
		return 0
	}
	return b.capacity - b.reserved
}

// Available implements Broker. Wait-free: it loads the published book
// state and never touches the book lock.
func (b *Local) Available() float64 {
	return b.published().avail
}

// AvailableAt implements Broker: the availability in force at time asOf,
// reconstructed from the change log. The hot path — asking "as of now",
// i.e. at or after the last mutation — is served wait-free from the
// published record, whose avail equals the change log's final entry
// (same-instant and backdated mutations coalesce, so once pub.at <= asOf
// the log has no later entry). Only genuinely historical queries walk
// the log under the book lock.
func (b *Local) AvailableAt(asOf Time) float64 {
	if p := b.published(); asOf >= p.at {
		return p.avail
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.availableAtLocked(asOf)
}

// availableAtLocked reconstructs the availability in force at asOf from
// the change log; instants the log no longer reaches report the full
// capacity. Callers must hold the book lock.
func (b *Local) availableAtLocked(asOf Time) float64 {
	if avail, ok := b.log.availableAt(asOf); ok {
		return avail
	}
	return b.capacity
}

// Report implements Broker. α is the ratio of the current availability to
// the average of the values reported during the past window (equation 5);
// when no past reports fall in the window, or the average is zero, α is
// 1.0 ("unchanged"). Availability and epoch come from one atomic load of
// the published record — internally consistent, no book lock; only the
// broker-private α window mutex is taken.
func (b *Local) Report(now Time) Report {
	p := b.published()
	b.alphaMu.Lock()
	alpha := b.window.feed(now, p.avail)
	b.alphaMu.Unlock()
	return Report{Resource: b.resource, Avail: p.avail, Alpha: alpha, At: now, Epoch: p.epoch}
}

// Reserve atomically reserves amount units, failing with ErrInsufficient
// when amount exceeds the current availability.
func (b *Local) Reserve(now Time, amount float64) (ReservationID, error) {
	if amount < 0 {
		return 0, fmt.Errorf("broker: resource %s: negative reservation %g", b.resource, amount)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.fitsLocked(amount) {
		return 0, fmt.Errorf("broker: resource %s: need %g, have %g: %w", b.resource, amount, b.availLocked(), ErrInsufficient)
	}
	return b.reserveLocked(now, amount), nil
}

// fitsLocked reports whether a new hold of amount fits the book: the
// post-commit reserved total may not exceed the capacity in force.
// The only forgiveness is proportional float64 rounding noise of the
// sums involved (capNoise) — an absolute epsilon of net new demand is
// NOT forgiven, which the previous check (amount <= avail + 1e-9) did:
// at exactly-full capacity it admitted an extra 1e-9 per admission, an
// overcommit that admit/release churn could renew indefinitely.
// Callers must hold the book lock.
func (b *Local) fitsLocked(amount float64) bool {
	if b.failed && amount > 0 {
		return false
	}
	post := b.reserved + amount
	if post <= b.capacity {
		return true
	}
	return post-b.capacity <= capNoise(b.capacity)
}

// capNoise is the rounding forgiveness for a book of the given scale:
// proportional to capacity (a few thousand ULPs), so genuine summation
// noise of requirements that add up to exactly the capacity is
// forgiven, while eps-scale (1e-9) net new demand at the capacities
// this system runs at (10²–10⁶) is refused.
func capNoise(capacity float64) float64 {
	if capacity < 0 {
		capacity = -capacity
	}
	n := capacity * 1e-12
	if n < 1e-15 {
		n = 1e-15
	}
	return n
}

// reserveLocked creates a hold without checking availability. Callers
// must hold the book lock and have validated that amount fits; the
// atomic multi-resource commit path validates every broker of a plan
// before committing any of them.
func (b *Local) reserveLocked(now Time, amount float64) ReservationID {
	b.nextID++
	id := b.nextID
	b.holds[id] = hold{amount: amount}
	b.reserved += amount
	b.logChangeLocked(now)
	return id
}

// Release terminates a reservation and returns its units.
func (b *Local) Release(now Time, id ReservationID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.holds[id]
	if !ok {
		return fmt.Errorf("broker: resource %s: reservation %d: %w", b.resource, id, ErrUnknownReservation)
	}
	delete(b.holds, id)
	b.reserved -= h.amount
	if b.reserved < 0 {
		b.reserved = 0
	}
	b.logChangeLocked(now)
	return nil
}

// Reservations returns the number of live reservations, for tests and
// leak checks.
func (b *Local) Reservations() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.holds)
}

// Reserved returns the total amount currently held. Unlike Available it
// is meaningful even while the resource is failed or its capacity has
// collapsed below the held total.
func (b *Local) Reserved() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reserved
}

// HoldAmounts returns the amounts of every live hold, sorted ascending.
// Two books with equal multisets of hold amounts are observably
// equivalent regardless of the order the holds were admitted in —
// the recovery and contention tests compare exactly this.
func (b *Local) HoldAmounts() []float64 {
	b.mu.Lock()
	out := make([]float64, 0, len(b.holds))
	for _, h := range b.holds {
		out = append(out, h.amount)
	}
	b.mu.Unlock()
	sort.Float64s(out)
	return out
}

// logChangeLocked bumps the epoch, records the new availability in the
// change log and republishes the book, both under the instant the log
// recorded it at (see changeLog.record). Callers must hold the book
// lock.
func (b *Local) logChangeLocked(now Time) {
	b.epoch++
	b.publishLocked(b.log.record(now, b.availLocked()))
}
