package broker

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

// LocalResourceID names a host-local resource, e.g. "cpu@H2".
func LocalResourceID(kind string, host topo.HostID) string {
	return fmt.Sprintf("%s@%s", kind, host)
}

// LinkResourceID names a link bandwidth resource, e.g. "link:L7".
func LinkResourceID(id topo.LinkID) string { return linkPrefix + string(id) }

// IsLinkResource reports whether a resource ID names a link bandwidth
// resource (see LinkResourceID).
func IsLinkResource(resource string) bool { return strings.HasPrefix(resource, linkPrefix) }

const linkPrefix = "link:"

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

	mu     sync.Mutex
	local  map[string]*Local   // host-local resources and links
	net    map[string]*Network // end-to-end network resources, lazily built
	byName map[string]Broker   // every registered broker by resource ID
}

// NewPool creates an empty pool over a topology. The topology may be nil
// for pools that only hold local resources. Its brokers use the default
// α window and keep their whole change history.
func NewPool(topology *topo.Topology) *Pool {
	return NewPoolWindow(topology, DefaultAlphaWindow, keepAllHistory)
}

// NewPoolWindow creates a pool whose brokers use the given α window and
// whose change logs answer AvailableAt (and so StaleSnapshot lags) up to
// history old, trimming themselves beyond that; zero suits a deployment
// that only ever observes the present. A negative history is refused
// when the first broker is added.
func NewPoolWindow(topology *topo.Topology, window, history Time) *Pool {
	return &Pool{
		topology:    topology,
		alphaWindow: window,
		history:     history,
		local:       make(map[string]*Local),
		net:         make(map[string]*Network),
		byName:      make(map[string]Broker),
	}
}

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
	b, err := newLocal(resource, capacity, p.alphaWindow, p.history)
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
	n, err := newNetwork(resource, links, p.alphaWindow)
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

// LocalBrokers returns every local/link broker, sorted by resource ID:
// every book of the pool. Network brokers are excluded because they are
// views over link books.
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

// MultiReservation is the set of holds backing one end-to-end
// multi-resource reservation plan: one per local resource and one per
// link of every network route, each in its Local broker's book.
type MultiReservation struct {
	parts []multiPart
	// leased records that SetLease armed an expiry on the parts: from
	// then on a part may be reclaimed underneath us by a lease sweep,
	// so Release treats ErrUnknownReservation as already-reclaimed
	// rather than as corruption.
	leased bool
}

type multiPart struct {
	broker *Local
	id     ReservationID
}

// Resources returns the resource IDs the reservation holds capacity on,
// in reservation order — route links in place of the network resources
// they back. The repair layer matches failed resources against them to
// find the sessions a fault invalidates.
func (m *MultiReservation) Resources() []string {
	out := make([]string, len(m.parts))
	for i, p := range m.parts {
		out[i] = p.broker.resource
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
		if err := p.broker.setLease(p.id, expiry); err != nil {
			return err
		}
	}
	return nil
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

// ExpireLeases sweeps every local and link broker of the pool for
// leased holds whose expiry has passed, reclaiming their capacity, and
// returns the number of holds reclaimed.
func (p *Pool) ExpireLeases(now Time) int {
	total := 0
	for _, b := range p.LocalBrokers() {
		total += b.ExpireLeases(now)
	}
	return total
}
