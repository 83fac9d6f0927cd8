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
	"math/rand"
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

// Set positions the clock.
func (c *ManualClock) Set(t broker.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
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

// stallRequest is a test hook: it wedges the receiving proxy's serve
// goroutine until release is closed, simulating a QoSProxy that accepts
// messages but never answers them.
type stallRequest struct {
	release chan struct{}
}

// QoSProxy is the per-host reservation coordinator.
type QoSProxy struct {
	host topo.HostID
	// rt is the deploying runtime: handlers reach its clock, trace
	// recorder, write-ahead log, and commit-decision table through it.
	rt      *Runtime
	brokers map[string]broker.Broker
	// models holds, per service, the components stored at this host
	// under the distributed model-storage approach of section 3.
	models map[string]map[svc.ComponentID]*svc.Component
	// skeletons holds, per service, the skeleton this host (as main
	// QoSProxy) plans from.
	skeletons map[string]Skeleton

	// pending is the idempotency table of the two-phase commit
	// participant (see twophase.go). It is owned by the serve goroutine:
	// only message handlers touch it, so it needs no lock.
	pending map[string]*prepState
	// order remembers pending insertion order for bounded GC.
	order []string

	// ep and done belong to the current Start..Stop cycle; a restarted
	// runtime re-registers the endpoint and spawns a fresh serve loop.
	ep   *transport.Endpoint
	done chan struct{}
	wg   sync.WaitGroup

	// wedged mirrors an injected stall (stallRequest) for the read fast
	// lane: while set, availability handlers drop requests unanswered so
	// callers observe the same wedged-proxy symptoms (deadline expiry)
	// the serve loop exhibits.
	wedged atomic.Bool
}

// newQoSProxy constructs (but does not start) a proxy.
func newQoSProxy(host topo.HostID, rt *Runtime) *QoSProxy {
	return &QoSProxy{
		host:    host,
		rt:      rt,
		brokers: make(map[string]broker.Broker),
		pending: make(map[string]*prepState),
	}
}

// Host returns the proxy's host.
func (p *QoSProxy) Host() topo.HostID { return p.host }

// addr is the proxy's fabric address.
func (p *QoSProxy) addr() transport.Addr { return transport.Addr(p.host) }

// Resources lists the resource IDs of the brokers deployed at this host,
// sorted.
func (p *QoSProxy) Resources() []string {
	out := make([]string, 0, len(p.brokers))
	for r := range p.brokers {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// serve is the proxy goroutine: it owns all broker interactions of its
// host, driven by fabric deliveries.
func (p *QoSProxy) serve(ep *transport.Endpoint, done chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-done:
			return
		case d := <-ep.Inbox():
			p.handle(d)
			d.Done()
		}
	}
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

// handle dispatches one delivery under its participant span. Replies
// cross the fabric back to the caller (and suffer the route's chaos on
// the way).
func (p *QoSProxy) handle(d transport.Delivery) {
	defer p.participantSpan(d).End()
	switch req := d.Payload.(type) {
	case availabilityRequest:
		d.Reply(p.handleAvailability(req))
	case modelRequest:
		d.Reply(p.handleModel(req))
	case prepareRequest:
		d.Reply(p.handlePrepare(req))
	case commitRequest:
		d.Reply(p.handleCommit(req))
	case abortRequest:
		d.Reply(p.handleAbort(req))
	case outcomeRequest:
		d.Reply(p.handleOutcome(req))
	case stallRequest:
		// Wedge the whole proxy, fast lane included: availability
		// handlers drop requests while wedged so callers time out
		// exactly as they would against a blocked serve loop.
		p.wedged.Store(true)
		<-req.release
		p.wedged.Store(false)
	}
}

// handleAvailabilityFast is the read fast lane: it answers availability
// queries on the delivering goroutine with wait-free broker reads,
// never touching the serve loop or any stripe lock, under the same
// participant span handle opens. While the proxy is wedged (stall
// injection) the handler declines the delivery instead: it falls back
// to the inbox and queues FIFO behind the stall, exactly as every
// request did before the fast lane existed — answered once the stall
// releases, or timing out on the caller's deadline first.
func (p *QoSProxy) handleAvailabilityFast(d transport.Delivery) bool {
	if p.wedged.Load() {
		return false
	}
	defer p.participantSpan(d).End()
	req, ok := d.Payload.(availabilityRequest)
	if !ok {
		return false
	}
	d.Reply(p.handleAvailability(req))
	return true
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
	// Templates is the compiled-template cache Establish draws QRG graphs
	// from — pass one built over a live registry to count hits and
	// misses. nil is an unobserved cache.
	Templates *qrg.TemplateCache
	// AdmitPolicy bounds the validate-at-commit retry loop of Establish;
	// nil is DefaultAdmitPolicy. Negative MaxRetries is treated as zero (a
	// single attempt, no replanning). When the policy enables Jitter, the
	// backoff sleeps are drawn full-jitter from a source seeded with
	// JitterSeed, so retry storms de-synchronize deterministically under
	// a fixed seed.
	AdmitPolicy *AdmitPolicy
	// WAL, when non-nil, makes the reservation books durable: participant
	// prepare/commit/abort records, coordinator commit decisions, lease
	// renewals, and releases are appended — fsynced, in commit order — to
	// this log. The runtime owns it from here on (CloseWAL closes it).
	// Pair with Recover to rebuild state from a previous process's log.
	WAL *wal.Log
	// Metrics is the registry the runtime records into: the latency of
	// every Establish and of each of its stages, commit-time refusals,
	// retries and sheds, repair and renegotiation outcomes, and — only
	// when WAL is set — log appends and recovery counters.
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
	// policy bounds the validate-at-commit retry loop of Establish;
	// jitter is the seeded source behind its full-jitter backoff, nil
	// when jitter is off.
	policy AdmitPolicy
	jitter *lockedRand
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

	// mu guards what changes over the runtime's life: the deployment
	// (proxies and owner, frozen while started), the Start..Stop cycle,
	// the live-session registry, the availability report cache, and the
	// delivered QoS-seconds total.
	mu      sync.Mutex
	proxies map[topo.HostID]*QoSProxy
	owner   map[string]topo.HostID
	started bool
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
	// against Stop (which must not double-close a crashed proxy's done
	// channel mid-restart).
	crashMu sync.Mutex
}

// NewRuntime creates an empty runtime over a clock, configured by opts.
// Options{} is a perfect fabric, the default admission policy, an
// unobserved template cache, no admission bound, no leasing, no
// durability, and no instrumentation.
func NewRuntime(clock Clock, opts Options) *Runtime {
	rt := &Runtime{
		clock:      clock,
		fabric:     opts.Transport,
		stages:     obs.NewPlanStages(opts.Metrics),
		admit:      obs.NewAdmitMetrics(opts.Metrics),
		faults:     obs.NewFaultMetrics(opts.Metrics),
		adapt:      obs.NewAdaptMetrics(opts.Metrics),
		tracer:     opts.Tracing,
		policy:     DefaultAdmitPolicy,
		gate:       transport.NewGate(opts.MaxInFlight),
		templates:  opts.Templates,
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
	if rt.policy.Jitter {
		rt.jitter = newLockedRand(rt.policy.JitterSeed)
	}
	if rt.templates == nil {
		rt.templates = qrg.NewTemplateCache(nil)
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

// templateFor returns the session's compiled template, or nil when
// compilation fails (Establish then falls back to qrg.Build, which
// reports errors with its own lazier semantics).
func (rt *Runtime) templateFor(spec SessionSpec) *qrg.Template {
	tpl, err := rt.templates.Get(spec.Service, spec.Binding)
	if err != nil {
		return nil
	}
	return tpl
}

// lockedRand is a mutex-guarded rand.Rand shared by concurrent
// admission retries.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

// Int63n draws uniformly from [0, n).
func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
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

// brokerFor resolves a resource to its deployed broker. The owner and
// per-proxy broker maps are frozen once Start has been called (Deploy
// refuses afterwards), so reading them here cannot race with the proxy
// goroutines.
func (rt *Runtime) brokerFor(resource string) (broker.Broker, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	host, ok := rt.owner[resource]
	if !ok {
		return nil, false
	}
	b, ok := rt.proxies[host].brokers[resource]
	return b, ok
}

// AddHost deploys a QoSProxy on a host. It must be called before Start.
func (rt *Runtime) AddHost(host topo.HostID) (*QoSProxy, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return nil, errors.New("proxy: runtime already started")
	}
	if _, dup := rt.proxies[host]; dup {
		return nil, fmt.Errorf("proxy: host %s already has a QoSProxy", host)
	}
	p := newQoSProxy(host, rt)
	rt.proxies[host] = p
	return p, nil
}

// Deploy registers a Resource Broker at a host's proxy. Following the
// paper's RSVP compatibility note, end-to-end network brokers should be
// deployed at the receiver-side host.
func (rt *Runtime) Deploy(host topo.HostID, b broker.Broker) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
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
	return nil
}

// Owner returns the host whose proxy owns a resource.
func (rt *Runtime) Owner(resource string) (topo.HostID, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h, ok := rt.owner[resource]
	return h, ok
}

// Start registers every proxy's fabric endpoint and launches its serve
// goroutine. Idempotent; a stopped runtime can be started again (the
// endpoints are re-registered).
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return
	}
	rt.started = true
	for _, p := range rt.proxies {
		p.ep = rt.fabric.Endpoint(p.addr(), 16)
		p.done = make(chan struct{})
		// Availability queries take the read fast lane: wait-free broker
		// reads answered on the delivering goroutine, bypassing the serve
		// loop entirely. The serve loop keeps its availabilityRequest case
		// as a fallback for deliveries raced ahead of this registration.
		p.ep.SetHandler(msgAvailability, p.handleAvailabilityFast)
		p.wg.Add(1)
		go p.serve(p.ep, p.done)
	}
}

// Stop terminates every proxy goroutine, closes their endpoints (the
// fabric then drops deliveries to them), and waits for the goroutines.
func (rt *Runtime) Stop() {
	// Serialize with CrashRestart: a crashed proxy's done channel is
	// already closed, and the restart must finish re-arming it before
	// Stop tears it down.
	rt.crashMu.Lock()
	defer rt.crashMu.Unlock()
	rt.mu.Lock()
	if !rt.started {
		rt.mu.Unlock()
		return
	}
	rt.started = false
	proxies := make([]*QoSProxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		proxies = append(proxies, p)
	}
	rt.mu.Unlock()
	for _, p := range proxies {
		close(p.done)
		p.ep.Close()
	}
	for _, p := range proxies {
		p.wg.Wait()
	}
}

// proxyFor returns the proxy owning a resource.
func (rt *Runtime) proxyFor(resource string) (*QoSProxy, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	host, ok := rt.owner[resource]
	if !ok {
		return nil, fmt.Errorf("proxy: resource %s deployed nowhere", resource)
	}
	return rt.proxies[host], nil
}

// hostFor returns the host owning a resource.
func (rt *Runtime) hostFor(resource string) (topo.HostID, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	host, ok := rt.owner[resource]
	if !ok {
		return "", fmt.Errorf("proxy: resource %s deployed nowhere", resource)
	}
	return host, nil
}
