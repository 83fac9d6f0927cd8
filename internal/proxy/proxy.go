// Package proxy implements the runtime system architecture of section 3:
// a QoSProxy per end host coordinating the Resource Brokers deployed on
// that host. For each distributed service session the main QoSProxy (the
// one on the service's main server, holding the QoS-Resource Model
// definition) runs the three-phase protocol of section 4.2:
//
//  1. the participating QoSProxies report the current availability (and
//     availability change index) of the session's resources;
//  2. the main QoSProxy executes the planning algorithm locally;
//  3. the main QoSProxy commits the computed end-to-end reservation
//     plan against the participating Resource Brokers.
//
// Phase 3 runs an idempotent two-phase commit over the transport fabric
// (see twophase.go): each participating proxy validates and holds its
// host's share of the plan with broker.ReserveAtomic (validate-at-commit
// — the protocol is inherently time-of-check/time-of-use, so every
// broker's current availability is re-checked under the package-wide
// lock order before any hold is created), and the main proxy then
// commits or aborts all prepares. A refusal leaves zero residual holds;
// Establish then retries planning against a fresh snapshot under the
// runtime's bounded AdmitPolicy.
//
// Every inter-proxy message — phase-1 availability collection, model
// fetch, prepare/commit/abort — crosses an injectable transport.Fabric,
// so the protocol is exercised against message delay, loss, duplication,
// and partitions, not just in-process calls. All protocol entry points
// accept a context: a partitioned or silent participant surfaces as a
// deadline expiry and a degraded-snapshot retry, never as an unbounded
// block. The default fabric (a zero Options.Transport) is perfect —
// instant, lossless, exactly-once — which preserves the in-process
// semantics for deployments that do not inject chaos.
package proxy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/qrg"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// Clock supplies the current time to the runtime. Simulated deployments
// use a manual clock; live ones a wall clock.
type Clock interface {
	Now() broker.Time
}

// ManualClock is a settable clock for tests and simulations.
type ManualClock struct {
	mu  sync.Mutex
	now broker.Time
}

// Now implements Clock.
func (c *ManualClock) Now() broker.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d broker.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// message kinds exchanged between QoSProxies over the fabric (the
// transport metrics label messages by these).
const (
	msgAvailability = "availability"
	msgModel        = "model"
	msgPrepare      = "prepare"
	msgCommit       = "commit"
	msgAbort        = "abort"
)

// availabilityRequest asks a participant proxy for phase-1 reports.
type availabilityRequest struct {
	resources []string
}

type availabilityReply struct {
	reports []broker.Report
	err     error
}

// QoSProxy is the per-host reservation coordinator.
type QoSProxy struct {
	host topo.HostID
	// rt is the deploying runtime: handlers reach its clock, trace
	// recorder, write-ahead log, and commit-decision table through it.
	rt      *Runtime
	brokers map[string]broker.Broker
	// books are the Local brokers the host holds capacity on, by
	// resource ID: its own, and the links under its network brokers.
	books map[string]*broker.Local
	// models holds, per service, the components stored at this host
	// under the distributed model-storage approach of section 3.
	models map[string]map[svc.ComponentID]*svc.Component
	// skeletons holds, per service, the skeleton this host (as main
	// QoSProxy) plans from.
	skeletons map[string]Skeleton

	// mu serialises the two-phase-commit participant: the prepare,
	// commit and abort handlers and the crash that wipes and replays
	// what they guard. It guards pending and order.
	mu sync.Mutex
	// pending is the idempotency table of the two-phase commit
	// participant (see twophase.go).
	pending map[string]*prepState
	// order remembers pending insertion order for bounded GC.
	order []string

	// ep belongs to the current Start..Stop cycle; a restarted runtime
	// re-registers the endpoint.
	ep *transport.Endpoint
}

// newQoSProxy constructs (but does not start) a proxy.
func newQoSProxy(host topo.HostID, rt *Runtime) *QoSProxy {
	return &QoSProxy{
		host:    host,
		rt:      rt,
		brokers: make(map[string]broker.Broker),
		books:   make(map[string]*broker.Local),
		pending: make(map[string]*prepState),
	}
}

// addr is the proxy's fabric address.
func (p *QoSProxy) addr() transport.Addr { return transport.Addr(p.host) }

// listen registers the proxy's fabric endpoint and its handlers, for
// one Start..Stop cycle or one restart. The endpoint has no inbox: a
// message is answered on the delivering goroutine or not at all, and
// one that lands before its handler is installed is dropped like a
// lost message instead of stranding in a queue.
func (p *QoSProxy) listen() {
	p.ep = p.rt.fabric.Endpoint(p.addr(), 0)
	for kind, h := range p.handlers() {
		p.ep.SetHandler(kind, h)
	}
}

// handlers maps every message kind the proxy answers to its handler on
// the current endpoint. Availability, model and outcome queries are
// reads: broker reports, the model store (fixed at Start) and the
// decide table under decideMu, so a host reconciling under its own mu
// can query another without deadlock. Prepare, commit and abort run
// under p.mu, and one that gets it only after the endpoint closed is
// dropped unanswered: the host crashed or stopped under it, and the
// caller observes the closure.
func (p *QoSProxy) handlers() map[string]func(transport.Delivery) {
	ep := p.ep
	read := func(d transport.Delivery) {
		defer p.participantSpan(d).End()
		switch req := d.Payload.(type) {
		case availabilityRequest:
			d.Reply(p.handleAvailability(req))
		case modelRequest:
			d.Reply(p.handleModel(req))
		case outcomeRequest:
			d.Reply(p.rt.lookupOutcome(req.id))
		}
	}
	twoPhase := func(d transport.Delivery) {
		p.mu.Lock()
		defer p.mu.Unlock()
		select {
		case <-ep.Done():
			return
		default:
		}
		defer p.participantSpan(d).End()
		switch req := d.Payload.(type) {
		case prepareRequest:
			d.Reply(p.handlePrepare(req))
		case commitRequest:
			d.Reply(p.handleCommit(req))
		case abortRequest:
			d.Reply(p.handleAbort(req))
		}
	}
	return map[string]func(transport.Delivery){
		msgAvailability: read, msgModel: read, msgOutcome: read,
		msgPrepare: twoPhase, msgCommit: twoPhase, msgAbort: twoPhase,
	}
}

// halt drops the proxy off the fabric. It returns once no handler can
// touch the participant state: every two-phase handler that got p.mu
// before the endpoint closed has finished, and later ones find it
// closed and drop their delivery, so a crash lands on a message
// boundary.
func (p *QoSProxy) halt() {
	p.ep.Close()
	// An empty critical section: a barrier behind the handler in flight.
	p.mu.Lock()
	p.mu.Unlock()
}

// participantSpan opens this proxy's span for a traced delivery,
// causally parented under the caller's message span. The second copy of
// a duplicated delivery is still processed (the idempotency layer
// resolves it, and its reply covers a lost first reply) but annotates a
// duplicate-suppressed event instead of opening a second span. Inert
// for untraced deliveries.
func (p *QoSProxy) participantSpan(d transport.Delivery) obs.ActiveSpan {
	if d.Dup {
		p.rt.tracer.EventOn(d.Span, obs.EventDuplicateSuppressed, d.Kind)
		return obs.ActiveSpan{}
	}
	if d.Kind == "" {
		return obs.ActiveSpan{}
	}
	return p.rt.tracer.ChildOf(d.Span, d.Kind, string(p.host))
}

func (p *QoSProxy) handleAvailability(req availabilityRequest) availabilityReply {
	now := p.rt.clock.Now()
	reports := make([]broker.Report, 0, len(req.resources))
	for _, r := range req.resources {
		b, ok := p.brokers[r]
		if !ok {
			return availabilityReply{err: fmt.Errorf("proxy %s: no broker for resource %s", p.host, r)}
		}
		reports = append(reports, b.Report(now))
	}
	return availabilityReply{reports: reports}
}

// Options configures a Runtime. It is read once, by NewRuntime; the
// zero value is a complete configuration (each field documents what its
// zero means), and nothing in it can be changed on a constructed
// runtime. Metrics and Tracing are optional: nil leaves the runtime
// unobserved at no cost.
type Options struct {
	// Transport is the message fabric every inter-proxy call crosses —
	// typically one carrying injected loss, latency, duplication, or
	// partitions. nil is a perfect fabric: instant, lossless,
	// exactly-once.
	Transport *transport.Fabric
	// MaxInFlight bounds the number of concurrently admitted Establish
	// calls: beyond it, calls are shed immediately with
	// transport.ErrOverloaded instead of queueing. 0 is unbounded.
	MaxInFlight int
	// LeaseTTL, when positive, leases every established session's holds:
	// they expire LeaseTTL after the last heartbeat, so a crashed or
	// partitioned main proxy can never strand capacity — a lease sweep
	// (broker.Pool.ExpireLeases) reclaims it. The same TTL leases
	// two-phase-commit prepares, so a prepare orphaned by a lost commit or
	// abort message is reclaimed by the sweep too. Zero or negative holds
	// live until released.
	LeaseTTL broker.Time
	// AdmitPolicy bounds the validate-at-commit retry loop of Establish;
	// nil retries up to three times. Negative MaxRetries is treated as
	// zero (a single attempt, no replanning).
	AdmitPolicy *AdmitPolicy
	// WAL, when non-nil, makes the reservation books durable: participant
	// prepare/commit/abort records, coordinator commit decisions, lease
	// renewals, and releases are appended — fsynced, in commit order — to
	// this log. The runtime owns it from here on (CloseWAL closes it).
	// Pair with Recover to rebuild state from a previous process's log.
	WAL *wal.Log
	// Metrics is the registry the runtime records into: the latency of
	// every Establish and of each of its stages, commit-time refusals,
	// retries and sheds, repair and renegotiation outcomes, the hits and
	// misses of the compiled-template cache, and — only when WAL is set —
	// log appends and recovery counters.
	Metrics *obs.Registry
	// Tracing records distributed traces: every Establish, renegotiation
	// and repair sweep opens a trace whose spans follow the protocol
	// across the fabric (stage children, per-message call spans, remote
	// participant spans).
	Tracing *obs.TraceRecorder
}

// Runtime is a deployment of QoSProxies over a set of hosts, plus the
// registry mapping each resource to its owning host.
type Runtime struct {
	// Configuration: set by NewRuntime from Options and never written
	// again, so every path reads these fields without a lock. The metric
	// sets are never nil (inert without a registry); tracer may be nil,
	// which is inert too.
	clock  Clock
	fabric *transport.Fabric
	stages *obs.PlanStages
	admit  *obs.AdmitMetrics
	faults *obs.FaultMetrics
	adapt  *obs.AdaptMetrics
	tracer *obs.TraceRecorder
	// policy bounds the validate-at-commit retry loop of Establish.
	policy AdmitPolicy
	// gate bounds concurrent admissions; excess Establish calls are shed
	// with transport.ErrOverloaded.
	gate *transport.Gate
	// templates serves compiled QRG templates to Establish; never nil.
	templates *qrg.TemplateCache
	// leaseTTL, when positive, leases every new session's holds.
	leaseTTL broker.Time
	// wal, when non-nil, is the durability log: participant handlers and
	// the coordinator journal protocol records through it, and
	// Recover/CrashRestart replay it.
	wal        *wal.Log
	walMetrics *obs.WALMetrics
	// stamped records that the log names this runtime's deployment (a
	// deployment record); the one append that does runs under mu.
	stamped atomic.Bool

	// mu guards what changes over the runtime's life: the deployment
	// (proxies and owner, frozen while started), the Start..Stop cycle,
	// the live-session registry, the availability report cache, and the
	// delivered QoS-seconds total.
	mu      sync.Mutex
	proxies map[topo.HostID]*QoSProxy
	owner   map[string]topo.HostID
	// live is the deployment of a started runtime: a frozen copy of
	// proxies and owner that Start publishes (under mu) and Stop
	// withdraws, so the admission path routes without a lock. nil means
	// not started.
	live atomic.Pointer[deployment]
	// fingerprint identifies the deployment in the write-ahead log:
	// computed by the first Start, Recover or CheckpointWAL, and reset
	// by AddHost and Deploy.
	fingerprint string
	// sessions is the registry of live sessions, the set the repair
	// layer walks when a fault invalidates reservations.
	sessions map[*Session]struct{}
	// qosDelivered accumulates delivered QoS-seconds (end-to-end rank ×
	// held time) of torn-down sessions; live sessions' running segments
	// are added on read (DeliveredQoSSeconds).
	qosDelivered float64
	// reports caches the last availability report received from each
	// resource's owning proxy. When a participant is unreachable,
	// admission degrades to planning from this cache, aged by α (see
	// collectAvailability), instead of blocking on the partition.
	reports map[string]broker.Report

	// nextReq numbers two-phase-commit request IDs.
	nextReq atomic.Uint64
	// decided is the coordinator's commit-decision table — request IDs
	// whose commit point was journaled, with the decided lease expiry —
	// under its own lock so recovery outcome queries never touch rt.mu.
	// Rebuilt from decide records on recovery.
	decideMu sync.Mutex
	decided  map[string]broker.Time
	// crashMu serializes CrashRestart cycles against each other and
	// against Stop (which must not close a crashed proxy's endpoint while
	// the restart replaces it).
	crashMu sync.Mutex
}

// NewRuntime creates an empty runtime over a clock, configured by opts.
// Options{} is a perfect fabric, the default admission policy, no
// admission bound, no leasing, no durability, and no instrumentation.
// The runtime compiles QRG templates into its own cache, counted in
// opts.Metrics.
func NewRuntime(clock Clock, opts Options) *Runtime {
	rt := &Runtime{
		clock:      clock,
		fabric:     opts.Transport,
		stages:     obs.NewPlanStages(opts.Metrics),
		admit:      obs.NewAdmitMetrics(opts.Metrics),
		faults:     obs.NewFaultMetrics(opts.Metrics),
		adapt:      obs.NewAdaptMetrics(opts.Metrics),
		tracer:     opts.Tracing,
		policy:     defaultAdmitPolicy,
		gate:       transport.NewGate(opts.MaxInFlight),
		templates:  qrg.NewTemplateCache(opts.Metrics),
		leaseTTL:   opts.LeaseTTL,
		wal:        opts.WAL,
		walMetrics: &obs.WALMetrics{},

		proxies:  make(map[topo.HostID]*QoSProxy),
		owner:    make(map[string]topo.HostID),
		sessions: make(map[*Session]struct{}),
		reports:  make(map[string]broker.Report),
		decided:  make(map[string]broker.Time),
	}
	if opts.WAL != nil {
		// Only a durable runtime exports the log counters.
		rt.walMetrics = obs.NewWALMetrics(opts.Metrics)
	}
	if rt.fabric == nil {
		rt.fabric = transport.New(transport.Options{})
	}
	if opts.AdmitPolicy != nil {
		rt.policy = *opts.AdmitPolicy
	}
	if rt.policy.MaxRetries < 0 {
		rt.policy.MaxRetries = 0
	}
	if rt.leaseTTL < 0 {
		rt.leaseTTL = 0
	}
	return rt
}

// Transport returns the runtime's message fabric (for partition/heal
// injection and end-of-run settling).
func (rt *Runtime) Transport() *transport.Fabric { return rt.fabric }

// addDeliveredQoS folds a torn-down session's QoS-seconds into the
// runtime total. Called from terminateLocked with s.mu held (the lock
// order is always s.mu before rt.mu).
func (rt *Runtime) addDeliveredQoS(v float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.qosDelivered += v
}

// DeliveredQoSSeconds returns the delivered QoS-seconds so far: the
// sum over all sessions, torn down and live, of end-to-end rank × time
// held at that rank — the headline adaptation metric. Monotone in time;
// an adaptation policy that upgrades into headroom raises it, one that
// flaps or over-downgrades lowers it.
func (rt *Runtime) DeliveredQoSSeconds() float64 {
	now := rt.clock.Now()
	rt.mu.Lock()
	total := rt.qosDelivered
	sessions := make([]*Session, 0, len(rt.sessions))
	for s := range rt.sessions {
		sessions = append(sessions, s)
	}
	rt.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.state == StateActive {
			total += s.qosSeconds
			if s.plan != nil && now > s.qosMarkAt {
				total += float64(now-s.qosMarkAt) * float64(s.plan.Rank)
			}
		}
		s.mu.Unlock()
	}
	return total
}

// register adds a live session to the repair registry.
func (rt *Runtime) register(s *Session) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sessions[s] = struct{}{}
}

// unregister drops a session from the repair registry. Called from the
// session's teardown path with s.mu held; the lock order is always
// s.mu before rt.mu, never the reverse.
func (rt *Runtime) unregister(s *Session) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.sessions, s)
}

// LiveSessions returns the number of registered (active) sessions.
func (rt *Runtime) LiveSessions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sessions)
}

// cachedReport returns the last availability report seen from a
// resource's owning proxy, if any.
func (rt *Runtime) cachedReport(resource string) (broker.Report, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := rt.reports[resource]
	return rep, ok
}

// storeReports refreshes the availability cache with fresh phase-1
// reports.
func (rt *Runtime) storeReports(reports []broker.Report) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rep := range reports {
		rt.reports[rep.Resource] = rep
	}
}

// deployment routes resources to hosts and hosts to proxies.
type deployment struct {
	proxies map[topo.HostID]*QoSProxy
	owner   map[string]topo.HostID
}

// owning resolves a resource to its host and that host's proxy. A
// started runtime reads the snapshot Start published, without a lock.
func (rt *Runtime) owning(resource string) (topo.HostID, *QoSProxy, bool) {
	if d := rt.live.Load(); d != nil {
		h, ok := d.owner[resource]
		return h, d.proxies[h], ok
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h, ok := rt.owner[resource]
	return h, rt.proxies[h], ok
}

// route is a compiled template's resources resolved to their owning
// hosts: one leg per host, in host order. Phase 1 sends each leg's
// query as it is, and the prepare fan-out splits a plan's requirement
// along the same legs. Every admission of the template shares the
// route, so nothing modifies it once built.
type route struct {
	legs []routeLeg
	// size is the number of resources over all legs.
	size int
	// err names the first resource deployed nowhere; an admission over
	// the route fails with it before sending anything.
	err error
}

// routeLeg is one owning host's part of a route.
type routeLeg struct {
	host      topo.HostID
	resources []string
	// query is the leg's phase-1 request, boxed once.
	query interface{}
}

// newRoute resolves resources to their hosts through owner.
func newRoute(owner map[string]topo.HostID, resources []string) *route {
	r := &route{}
	for _, res := range resources {
		host, ok := owner[res]
		if !ok {
			if r.err == nil {
				r.err = fmt.Errorf("proxy: resource %s deployed nowhere", res)
			}
			continue
		}
		i := 0
		for i < len(r.legs) && r.legs[i].host != host {
			i++
		}
		if i == len(r.legs) {
			r.legs = append(r.legs, routeLeg{host: host})
		}
		r.legs[i].resources = append(r.legs[i].resources, res)
		r.size++
	}
	sort.Slice(r.legs, func(i, j int) bool { return r.legs[i].host < r.legs[j].host })
	for i := range r.legs {
		r.legs[i].query = availabilityRequest{resources: r.legs[i].resources}
	}
	return r
}

// routeOf returns the route of a template's resources. On a started
// runtime it is resolved once per template against the deployment
// Start published, and kept in the template, so it goes when the
// template cache evicts the template and is resolved again after a
// restart publishes a new deployment. A stopped runtime resolves it
// under rt.mu on every call.
func (rt *Runtime) routeOf(tpl *qrg.Template) *route {
	d := rt.live.Load()
	if d == nil {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return newRoute(rt.owner, tpl.Resources())
	}
	return tpl.Derive(d, func(t *qrg.Template) interface{} {
		return newRoute(d.owner, t.Resources())
	}).(*route)
}

// proxyOn returns the proxy on a host and whether the runtime is
// started, reading the published snapshot when it is.
func (rt *Runtime) proxyOn(host topo.HostID) (p *QoSProxy, ok, started bool) {
	if d := rt.live.Load(); d != nil {
		p, ok = d.proxies[host]
		return p, ok, true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok = rt.proxies[host]
	return p, ok, false
}

// copyDeploymentLocked copies the deployment maps. Callers hold rt.mu.
func (rt *Runtime) copyDeploymentLocked() *deployment {
	d := &deployment{
		proxies: make(map[topo.HostID]*QoSProxy, len(rt.proxies)),
		owner:   make(map[string]topo.HostID, len(rt.owner)),
	}
	for h, p := range rt.proxies {
		d.proxies[h] = p
	}
	for r, h := range rt.owner {
		d.owner[r] = h
	}
	return d
}

// AddHost deploys a QoSProxy on a host. It must be called before Start.
func (rt *Runtime) AddHost(host topo.HostID) (*QoSProxy, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() != nil {
		return nil, errors.New("proxy: runtime already started")
	}
	if _, dup := rt.proxies[host]; dup {
		return nil, fmt.Errorf("proxy: host %s already has a QoSProxy", host)
	}
	p := newQoSProxy(host, rt)
	rt.proxies[host] = p
	rt.fingerprint = ""
	return p, nil
}

// Deploy registers a Resource Broker at a host's proxy. Following the
// paper's RSVP compatibility note, end-to-end network brokers should be
// deployed at the receiver-side host; the proxy then holds the
// network's reservations on the link brokers of its route.
func (rt *Runtime) Deploy(host topo.HostID, b broker.Broker) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() != nil {
		return errors.New("proxy: runtime already started")
	}
	p, ok := rt.proxies[host]
	if !ok {
		return fmt.Errorf("proxy: no QoSProxy on host %s", host)
	}
	r := b.Resource()
	if prev, dup := rt.owner[r]; dup {
		return fmt.Errorf("proxy: resource %s already deployed on host %s", r, prev)
	}
	p.brokers[r] = b
	rt.owner[r] = host
	rt.fingerprint = ""
	switch t := b.(type) {
	case *broker.Local:
		p.books[r] = t
	case *broker.Network:
		for _, l := range t.Links() {
			p.books[l.Resource()] = l
		}
	}
	return nil
}

// Start registers every proxy's fabric endpoint and handlers.
// Idempotent; a stopped runtime can be started again (the endpoints are
// re-registered).
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() != nil {
		return
	}
	for _, p := range rt.proxies {
		p.listen()
	}
	// Name the deployment in the log by the capacities it starts with,
	// before a fault can shrink one.
	rt.fingerprintLocked()
	rt.live.Store(rt.copyDeploymentLocked())
}

// Stop closes every proxy's endpoint (the fabric then drops deliveries
// to them) and waits out the two-phase handlers in flight.
func (rt *Runtime) Stop() {
	// Serialize with CrashRestart: the restart must finish re-registering
	// the crashed proxy's endpoint before Stop closes it.
	rt.crashMu.Lock()
	defer rt.crashMu.Unlock()
	rt.mu.Lock()
	d := rt.live.Load()
	rt.live.Store(nil)
	rt.mu.Unlock()
	if d == nil {
		return
	}
	for _, p := range d.proxies {
		p.halt()
	}
}
