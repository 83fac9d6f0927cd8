package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

// LocalResourceID names a host-local resource, e.g. "cpu@H2".
func LocalResourceID(kind string, host topo.HostID) string {
	return fmt.Sprintf("%s@%s", kind, host)
}

// LinkResourceID names a link bandwidth resource, e.g. "link:L7".
func LinkResourceID(id topo.LinkID) string { return fmt.Sprintf("link:%s", id) }

// NetResourceID names the end-to-end network resource from a sender host
// to a receiver host, e.g. "net:H4->H1". Following the paper's
// RSVP-compatibility rule the broker is held at the receiver side, but
// the ID is directional so distinct sessions' paths stay distinct
// resources.
func NetResourceID(from, to topo.HostID) string { return fmt.Sprintf("net:%s->%s", from, to) }

// Pool is the reservation-enabled environment: the registry of every
// Resource Broker, backed by a topology for composing end-to-end network
// brokers on demand. It is safe for concurrent use.
type Pool struct {
	topology    *topo.Topology
	alphaWindow Time
	// history is how far back the local brokers' change logs answer
	// AvailableAt (see changelog.go).
	history Time
	// stripes shards the pool's broker books across a fixed set of
	// lock stripes (see stripe.go); brokers are hashed onto stripes by
	// resource ID at registration.
	stripes *StripeSet

	mu     sync.Mutex
	local  map[string]*Local   // host-local resources and links
	net    map[string]*Network // end-to-end network resources, lazily built
	byName map[string]Broker   // every registered broker by resource ID
}

// NewPool creates an empty pool over a topology. The topology may be nil
// for pools that only hold local resources. Its brokers use the default
// α window and keep their whole change history.
func NewPool(topology *topo.Topology) *Pool {
	return newPool(topology, DefaultAlphaWindow, keepAllHistory, DefaultStripes)
}

// NewPoolWindow creates a pool whose brokers use the given α window and
// whose change logs answer AvailableAt (and so StaleSnapshot lags) up to
// history old, trimming themselves beyond that; zero suits a deployment
// that only ever observes the present. A negative history is refused
// when the first broker is added.
func NewPoolWindow(topology *topo.Topology, window, history Time) *Pool {
	return newPool(topology, window, history, DefaultStripes)
}

// NewPoolStriped creates a pool whose broker books are sharded across
// the given number of lock stripes (minimum 1; 1 degenerates to one
// global book lock) and keep their whole change history.
func NewPoolStriped(topology *topo.Topology, window Time, stripes int) *Pool {
	return newPool(topology, window, keepAllHistory, stripes)
}

func newPool(topology *topo.Topology, window, history Time, stripes int) *Pool {
	return &Pool{
		topology:    topology,
		alphaWindow: window,
		history:     history,
		stripes:     NewStripeSet(stripes),
		local:       make(map[string]*Local),
		net:         make(map[string]*Network),
		byName:      make(map[string]Broker),
	}
}

// StripeCount returns the number of lock stripes the pool's books are
// sharded across.
func (p *Pool) StripeCount() int { return p.stripes.Size() }

// AddLocal registers a broker for a host-local resource and returns it.
func (p *Pool) AddLocal(kind string, host topo.HostID, capacity float64) (*Local, error) {
	return p.addLocal(LocalResourceID(kind, host), capacity)
}

// AddLink registers the bandwidth broker of a topology link.
func (p *Pool) AddLink(id topo.LinkID, capacity float64) (*Local, error) {
	if p.topology != nil {
		if _, ok := p.topology.Link(id); !ok {
			return nil, fmt.Errorf("broker: unknown link %s", id)
		}
	}
	return p.addLocal(LinkResourceID(id), capacity)
}

func (p *Pool) addLocal(resource string, capacity float64) (*Local, error) {
	b, err := newLocalOn(p.stripes.forResource(resource), resource, capacity, p.alphaWindow, p.history)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.byName[resource]; dup {
		return nil, fmt.Errorf("broker: duplicate resource %s", resource)
	}
	p.local[resource] = b
	p.byName[resource] = b
	return b, nil
}

// Network returns the end-to-end network broker for traffic from one host
// to another, creating it over the topology route on first use. Every
// link on the route must already have a registered link broker.
func (p *Pool) Network(from, to topo.HostID) (*Network, error) {
	if p.topology == nil {
		return nil, fmt.Errorf("broker: pool has no topology for network resources")
	}
	resource := NetResourceID(from, to)
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.net[resource]; ok {
		return n, nil
	}
	route, err := p.topology.Route(from, to)
	if err != nil {
		return nil, err
	}
	if len(route) == 0 {
		return nil, fmt.Errorf("broker: network resource %s has empty route (same host)", resource)
	}
	links := make([]*Local, len(route))
	for i, lid := range route {
		lb, ok := p.local[LinkResourceID(lid)]
		if !ok {
			return nil, fmt.Errorf("broker: link %s on route %s has no broker", lid, resource)
		}
		links[i] = lb
	}
	n, err := NewNetworkWindow(resource, links, p.alphaWindow)
	if err != nil {
		return nil, err
	}
	p.net[resource] = n
	p.byName[resource] = n
	return n, nil
}

// Get returns the broker for a resource ID. End-to-end network resources
// must have been created with Network first.
func (p *Pool) Get(resource string) (Broker, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.byName[resource]
	return b, ok
}

// Resources returns every registered resource ID, sorted.
func (p *Pool) Resources() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.byName))
	for r := range p.byName {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// LocalBrokers returns every local/link broker, sorted by resource ID.
// Network brokers are excluded because they alias link capacity.
func (p *Pool) LocalBrokers() []*Local {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Local, 0, len(p.local))
	for _, b := range p.local {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource() < out[j].Resource() })
	return out
}

// Snapshot is a consistent-enough view of availability and α for a set of
// resources at one instant, the "snap-shot of end-to-end resource
// requirement and availability" from which a QRG is constructed.
type Snapshot struct {
	At    Time
	Avail qos.ResourceVector
	Alpha map[string]float64
}

// Snapshot queries the named resources and returns their reports. Each
// query also feeds the broker's α window, as in the paper's protocol
// where proxies report availability to the main QoSProxy on every session.
// The snapshot's buffers come from a recycling pool; callers that own
// the snapshot exclusively may hand it back with RecycleSnapshot once
// done planning, making steady-state queries allocation-free.
func (p *Pool) Snapshot(now Time, resources []string) (*Snapshot, error) {
	s := grabSnapshot(now)
	for _, r := range resources {
		b, ok := p.Get(r)
		if !ok {
			p.RecycleSnapshot(s)
			return nil, fmt.Errorf("broker: snapshot of unknown resource %s", r)
		}
		rep := b.Report(now)
		s.Avail[r] = rep.Avail
		s.Alpha[r] = rep.Alpha
	}
	return s, nil
}

// StaleSnapshot is Snapshot with per-resource observation lag: resource r
// is observed as of now-lag[r] (lag 0 meaning current). α is still
// computed at the observation instant's availability against the current
// window, matching the simulation of section 5.2.4 where only the
// availability value is stale.
func (p *Pool) StaleSnapshot(now Time, resources []string, lag map[string]Time) (*Snapshot, error) {
	s := grabSnapshot(now)
	for _, r := range resources {
		b, ok := p.Get(r)
		if !ok {
			p.RecycleSnapshot(s)
			return nil, fmt.Errorf("broker: snapshot of unknown resource %s", r)
		}
		rep := b.Report(now)
		l := lag[r]
		if l < 0 {
			l = 0
		}
		avail := rep.Avail
		if l > 0 {
			avail = b.AvailableAt(now - l)
		}
		s.Avail[r] = avail
		if rep.Avail > 0 {
			// Rescale α to the stale observation so trend direction is
			// preserved relative to what the proxy believes it sees.
			s.Alpha[r] = rep.Alpha * (avail / rep.Avail)
		} else {
			s.Alpha[r] = rep.Alpha
		}
	}
	return s, nil
}

// MultiReservation is the set of per-resource reservations backing one
// end-to-end multi-resource reservation plan.
type MultiReservation struct {
	pool  *Pool
	parts []multiPart
	// leased records that SetLease armed an expiry on the parts: from
	// then on a part may be reclaimed underneath us by a lease sweep,
	// so Release treats ErrUnknownReservation as already-reclaimed
	// rather than as corruption.
	leased bool
}

type multiPart struct {
	broker Broker
	id     ReservationID
}

// Resources returns the reserved resource IDs in reservation order.
func (m *MultiReservation) Resources() []string {
	out := make([]string, len(m.parts))
	for i, p := range m.parts {
		out[i] = p.broker.Resource()
	}
	return out
}

// Touches returns every underlying concrete resource ID the reservation
// holds capacity on: the reserved resources themselves plus, for
// end-to-end network parts, each link on the route. The repair layer
// matches failed resources against this set to find the sessions a
// fault invalidates.
func (m *MultiReservation) Touches() []string {
	seen := make(map[string]bool, len(m.parts))
	var out []string
	add := func(r string) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, p := range m.parts {
		add(p.broker.Resource())
		if n, ok := p.broker.(*Network); ok {
			for _, l := range n.links {
				add(l.resource)
			}
		}
	}
	return out
}

// SetLease arms (or renews) a lease on every part of the reservation:
// each hold now expires at the given instant unless renewed again by
// the session heartbeat. The first part that is already gone — expired
// by a concurrent lease sweep — aborts with ErrUnknownReservation, the
// signal that the session lost its reservation and must re-establish.
func (m *MultiReservation) SetLease(expiry Time) error {
	m.leased = true
	for _, p := range m.parts {
		l, ok := p.broker.(Leaser)
		if !ok {
			return fmt.Errorf("broker: resource %s: %T does not support leases", p.broker.Resource(), p.broker)
		}
		if err := l.SetLease(p.id, expiry); err != nil {
			return err
		}
	}
	return nil
}

// ReserveAll atomically reserves every (resource, amount) pair of an
// end-to-end reservation plan: if any single reservation fails, all
// reservations already made are rolled back and the error is returned —
// "the failure to reserve one resource leads to the reservation failure
// for the whole distributed service session".
func (p *Pool) ReserveAll(now Time, req qos.ResourceVector) (*MultiReservation, error) {
	m := &MultiReservation{pool: p}
	for _, r := range req.Names() { // sorted for deterministic lock order
		amount := req[r]
		if amount == 0 {
			continue
		}
		b, ok := p.Get(r)
		if !ok {
			m.rollback(now)
			return nil, fmt.Errorf("broker: reserve of unknown resource %s", r)
		}
		id, err := b.Reserve(now, amount)
		if err != nil {
			m.rollback(now)
			return nil, err
		}
		m.parts = append(m.parts, multiPart{broker: b, id: id})
	}
	return m, nil
}

func (m *MultiReservation) rollback(now Time) {
	for i := len(m.parts) - 1; i >= 0; i-- {
		_ = m.parts[i].broker.Release(now, m.parts[i].id)
	}
	m.parts = nil
}

// Release terminates every reservation in the set. On a leased
// reservation an ErrUnknownReservation from a part is benign — the
// lease sweep reclaimed it first — and is skipped so the surviving
// parts are still released; any other error is reported after every
// part has been attempted.
func (m *MultiReservation) Release(now Time) error {
	var firstErr error
	for i := len(m.parts) - 1; i >= 0; i-- {
		if err := m.parts[i].broker.Release(now, m.parts[i].id); err != nil {
			if m.leased && errors.Is(err, ErrUnknownReservation) {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	m.parts = nil
	return firstErr
}

// NetworkBrokers returns every end-to-end network broker created so
// far, sorted by resource ID.
func (p *Pool) NetworkBrokers() []*Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Network, 0, len(p.net))
	for _, n := range p.net {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].resource < out[j].resource })
	return out
}

// ExpireLeases sweeps every broker of the pool for leased holds whose
// expiry has passed, reclaiming their capacity, and returns the number
// of leases reclaimed. Network brokers are swept too: their leases
// release the underlying link holds, which never carry leases of their
// own.
func (p *Pool) ExpireLeases(now Time) int {
	total := 0
	for _, n := range p.NetworkBrokers() {
		total += n.ExpireLeases(now)
	}
	for _, b := range p.LocalBrokers() {
		total += b.ExpireLeases(now)
	}
	return total
}
