// Package fault injects failures into a reservation-enabled environment:
// it can fail and recover link brokers, local brokers, and whole hosts,
// and shrink and restore broker capacities, one call at a time or as a
// seeded random walk. The injector mutates broker state
// only through the failure surface of package broker (Fail, Recover,
// SetCapacity), so the invariants of that surface hold under injection:
// a failed resource reports zero availability and refuses new
// reservations but keeps its book of holds, and a capacity shrink never
// evicts holds (availability goes negative until the repair layer
// releases the overhang).
//
// Every injection produces an Event naming the concrete resources it
// touched; the chaos harness forwards these to the session-repair layer
// (proxy.Runtime.RepairAffected), closing the fail → repair loop.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/topo"
	"qosres/internal/transport"
)

// Kind classifies one injected fault event.
type Kind string

const (
	// KindResourceDown fails a single host-local resource broker.
	KindResourceDown Kind = "resource_down"
	// KindLinkDown fails a single link bandwidth broker.
	KindLinkDown Kind = "link_down"
	// KindHostDown fails every resource of a host plus its incident
	// links.
	KindHostDown Kind = "host_down"
	// KindCapacityShrink reduces a broker's capacity without evicting
	// its holds.
	KindCapacityShrink Kind = "capacity_shrink"
	// KindRecover brings failed resources back to service.
	KindRecover Kind = "recover"
	// KindCapacityRestore restores a shrunk broker's original capacity.
	KindCapacityRestore Kind = "capacity_restore"
)

// Event is one applied injection: its kind and the concrete resource IDs
// it touched (for a host failure, every resource of the host and every
// incident link).
type Event struct {
	Kind      Kind
	Resources []string
}

// Injector drives fault injection against a broker pool, optionally
// informed by a topology (required for link/host faults). It is safe
// for concurrent use.
type Injector struct {
	pool     *broker.Pool
	topology *topo.Topology

	mu      sync.Mutex
	metrics *obs.FaultMetrics
	notify  func(Event)
	// downed records currently-failed resources; shrunk maps a resource
	// whose capacity was reduced to its original capacity; surges maps a
	// surged resource to its background hold.
	downed map[string]bool
	shrunk map[string]float64
	surges map[string]broker.ReservationID
	// fabric, when attached (SetTransport), receives network-level
	// injections; partitioned tracks cut host pairs and delayed maps a
	// delayed route to its original config.
	fabric      *transport.Fabric
	partitioned map[hostPair]bool
	delayed     map[hostPair]transport.RouteConfig
	// restarter, when attached (SetRestarter), receives crash/restart
	// injections (KindCrashRestart).
	restarter Restarter
}

// New creates an injector over a pool. The topology may be nil when only
// resource-level faults are injected.
func New(pool *broker.Pool, topology *topo.Topology) *Injector {
	return &Injector{
		pool:        pool,
		topology:    topology,
		metrics:     &obs.FaultMetrics{},
		downed:      make(map[string]bool),
		shrunk:      make(map[string]float64),
		surges:      make(map[string]broker.ReservationID),
		partitioned: make(map[hostPair]bool),
		delayed:     make(map[hostPair]transport.RouteConfig),
	}
}

// Instrument attaches fault counters; every injection then counts under
// qosres_fault_injected_total by kind. A nil argument leaves the
// injector unobserved at no cost.
func (in *Injector) Instrument(m *obs.FaultMetrics) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if m == nil {
		m = &obs.FaultMetrics{}
	}
	in.metrics = m
}

// OnFault registers the callback invoked (outside the injector lock)
// after every applied event — typically the repair layer's
// RepairAffected.
func (in *Injector) OnFault(fn func(Event)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.notify = fn
}

// emit counts and publishes an applied event.
func (in *Injector) emit(ev Event) {
	in.mu.Lock()
	m := in.metrics
	fn := in.notify
	in.mu.Unlock()
	m.Injected(string(ev.Kind))
	if fn != nil {
		fn(ev)
	}
}

// local resolves a resource ID to its Local broker.
func (in *Injector) local(resource string) (*broker.Local, error) {
	b, ok := in.pool.Get(resource)
	if !ok {
		return nil, fmt.Errorf("fault: unknown resource %s", resource)
	}
	l, ok := b.(*broker.Local)
	if !ok {
		return nil, fmt.Errorf("fault: resource %s is not a local broker", resource)
	}
	return l, nil
}

// FailResource fails one local or link broker: availability drops to
// zero and new reservations are refused until Recover.
func (in *Injector) FailResource(now broker.Time, resource string) error {
	l, err := in.local(resource)
	if err != nil {
		return err
	}
	l.Fail(now)
	in.mu.Lock()
	in.downed[resource] = true
	in.mu.Unlock()
	kind := KindResourceDown
	if strings.HasPrefix(resource, "link:") {
		kind = KindLinkDown
	}
	in.emit(Event{Kind: kind, Resources: []string{resource}})
	return nil
}

// FailLink fails the bandwidth broker of a topology link.
func (in *Injector) FailLink(now broker.Time, link topo.LinkID) error {
	return in.FailResource(now, broker.LinkResourceID(link))
}

// hostResources lists the registered resources of a host: every local
// broker bound to it ("kind@host") plus the links incident to it in the
// topology.
func (in *Injector) hostResources(host topo.HostID) []string {
	var out []string
	suffix := "@" + string(host)
	for _, b := range in.pool.LocalBrokers() {
		r := b.Resource()
		if strings.HasSuffix(r, suffix) {
			out = append(out, r)
		}
	}
	if in.topology != nil {
		for _, l := range in.topology.Links() {
			if l.A == host || l.B == host {
				r := broker.LinkResourceID(l.ID)
				if _, ok := in.pool.Get(r); ok {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// FailHost fails every resource of a host and every link incident to it
// — the paper's runtime environment losing a whole end host.
func (in *Injector) FailHost(now broker.Time, host topo.HostID) error {
	resources := in.hostResources(host)
	if len(resources) == 0 {
		return fmt.Errorf("fault: host %s has no registered resources", host)
	}
	for _, r := range resources {
		l, err := in.local(r)
		if err != nil {
			return err
		}
		l.Fail(now)
	}
	in.mu.Lock()
	for _, r := range resources {
		in.downed[r] = true
	}
	in.mu.Unlock()
	in.emit(Event{Kind: KindHostDown, Resources: resources})
	return nil
}

// RecoverResource brings one failed resource back to service.
func (in *Injector) RecoverResource(now broker.Time, resource string) error {
	l, err := in.local(resource)
	if err != nil {
		return err
	}
	l.Recover(now)
	in.mu.Lock()
	delete(in.downed, resource)
	in.mu.Unlock()
	in.emit(Event{Kind: KindRecover, Resources: []string{resource}})
	return nil
}

// RecoverHost recovers every resource of a host and its incident links.
func (in *Injector) RecoverHost(now broker.Time, host topo.HostID) error {
	resources := in.hostResources(host)
	for _, r := range resources {
		l, err := in.local(r)
		if err != nil {
			return err
		}
		l.Recover(now)
	}
	in.mu.Lock()
	for _, r := range resources {
		delete(in.downed, r)
	}
	in.mu.Unlock()
	in.emit(Event{Kind: KindRecover, Resources: resources})
	return nil
}

// ShrinkCapacity multiplies a broker's capacity by factor in (0, 1),
// recording the original capacity for RestoreCapacity. Holds are never
// evicted; availability may go negative until the overhang drains. A
// resource already shrunk keeps its first-recorded original.
func (in *Injector) ShrinkCapacity(now broker.Time, resource string, factor float64) error {
	if factor <= 0 || factor >= 1 {
		return fmt.Errorf("fault: shrink factor %g outside (0, 1)", factor)
	}
	l, err := in.local(resource)
	if err != nil {
		return err
	}
	in.mu.Lock()
	if _, already := in.shrunk[resource]; !already {
		in.shrunk[resource] = l.Capacity()
	}
	in.mu.Unlock()
	if err := l.SetCapacity(now, l.Capacity()*factor); err != nil {
		return err
	}
	in.emit(Event{Kind: KindCapacityShrink, Resources: []string{resource}})
	return nil
}

// RestoreCapacity returns a shrunk broker to its original capacity.
func (in *Injector) RestoreCapacity(now broker.Time, resource string) error {
	in.mu.Lock()
	orig, ok := in.shrunk[resource]
	delete(in.shrunk, resource)
	in.mu.Unlock()
	if !ok {
		return fmt.Errorf("fault: resource %s was not shrunk", resource)
	}
	l, err := in.local(resource)
	if err != nil {
		return err
	}
	if err := l.SetCapacity(now, orig); err != nil {
		return err
	}
	in.emit(Event{Kind: KindCapacityRestore, Resources: []string{resource}})
	return nil
}

// RecoverAll recovers every downed resource, restores every shrunk
// capacity, heals every partition, and restores every delayed route —
// the end-of-chaos cleanup that must return the environment to its
// exact original shape.
func (in *Injector) RecoverAll(now broker.Time) {
	in.healTransport()
	in.mu.Lock()
	downed := make([]string, 0, len(in.downed))
	for r := range in.downed {
		downed = append(downed, r)
	}
	shrunk := make([]string, 0, len(in.shrunk))
	for r := range in.shrunk {
		shrunk = append(shrunk, r)
	}
	in.mu.Unlock()
	sort.Strings(downed)
	sort.Strings(shrunk)
	for _, r := range downed {
		_ = in.RecoverResource(now, r)
	}
	for _, r := range shrunk {
		_ = in.RestoreCapacity(now, r)
	}
	for _, r := range in.Surged() {
		_ = in.EndSurge(now, r)
	}
}

// Active returns the currently-downed resources, sorted. Shrunk-but-live
// resources are not included.
func (in *Injector) Active() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.downed))
	for r := range in.downed {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Shrunk returns the currently-shrunk resources, sorted.
func (in *Injector) Shrunk() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.shrunk))
	for r := range in.shrunk {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
