// Package transport is the message-passing fabric between the QoSProxies
// of a runtime deployment. The paper's runtime is genuinely distributed —
// per-host QoSProxies and Resource Brokers exchange RSVP-style signaling
// messages — so the protocol implementation must survive what real
// networks do to messages: delay, loss, duplication, and partitions.
//
// The fabric routes request/reply calls between named endpoints. Every
// route (unordered host pair) carries an injectable RouteConfig: a
// per-delivery latency, a loss probability, and a duplication
// probability, all driven by one seeded RNG so chaos runs are
// reproducible for a fixed seed and call sequence. Routes can further be
// partitioned (every message silently dropped) and healed at runtime,
// which is how the fault injector models network splits.
//
// Two protection mechanisms guard the callers:
//
//   - a per-route circuit breaker (closed → open → half-open, see
//     breaker.go) stops a caller from hammering a peer whose calls keep
//     timing out — an open breaker fails calls fast until a cooldown
//     elapses and a single half-open probe succeeds;
//   - a bounded in-flight gate (see gate.go) lets a runtime shed
//     admission work with an explicit ErrOverloaded instead of queueing
//     unboundedly under overload.
//
// Loopback calls (from == to) model the proxy talking to itself and
// never cross the simulated network: they are delivered reliably with no
// loss, latency, duplication, or breaker accounting.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qosres/internal/obs"
)

// Addr names a fabric endpoint — in the runtime deployment, a host ID.
type Addr string

var (
	// ErrNoEndpoint is returned by Call when the destination address has
	// no registered endpoint.
	ErrNoEndpoint = errors.New("transport: no endpoint at address")
	// ErrCircuitOpen is returned by Call when the route's circuit
	// breaker is open: the peer's recent calls kept failing and the
	// cooldown has not elapsed, so the call is failed fast instead of
	// waiting out another deadline.
	ErrCircuitOpen = errors.New("transport: circuit open")
	// ErrClosed is returned by Call when the destination endpoint has
	// been closed (its host was shut down).
	ErrClosed = errors.New("transport: endpoint closed")
)

// RouteConfig is the injectable unreliability of one route (unordered
// pair of endpoints). The zero value is a perfect route: instant,
// lossless, exactly-once.
type RouteConfig struct {
	// Latency is the wall-clock one-way delivery delay applied to every
	// message (and every reply) on the route.
	Latency time.Duration
	// Loss is the per-delivery probability in [0, 1] that a message (or
	// a reply) is silently dropped.
	Loss float64
	// Dup is the per-delivery probability in [0, 1] that a message (or a
	// reply) is delivered twice.
	Dup float64
}

// Options configures a Fabric.
type Options struct {
	// Seed drives the loss/duplication rolls. The zero seed is valid
	// (and, with zero Defaults and no per-route overrides, never
	// consulted).
	Seed int64
	// Defaults is the RouteConfig of every route without an override.
	Defaults RouteConfig
	// Breaker, when non-nil, arms a circuit breaker on every non-loopback
	// route.
	Breaker *BreakerConfig
	// Metrics, when non-nil, receives message/drop/dup/timeout/breaker
	// counters and per-route call latency. nil records nothing at no
	// cost.
	Metrics *obs.Registry
}

// pair is an unordered endpoint pair, the key of route state.
type pair [2]Addr

func norm(a, b Addr) pair {
	if b < a {
		a, b = b, a
	}
	return pair{a, b}
}

// Delivery is one inbound message at an endpoint.
type Delivery struct {
	// From is the sender's address.
	From Addr
	// Kind is the message family the caller passed to Call.
	Kind string
	// Span is the caller's span context, carried inside the message so
	// the receiver can causally parent its own spans under the caller's
	// even across loss and duplication. Zero when the caller's trace is
	// not being recorded.
	Span obs.SpanContext
	// Dup marks the second copy of a duplicated delivery: receivers
	// should suppress it for tracing purposes (annotate a
	// duplicate-suppressed event instead of opening a second span).
	Dup bool
	// Payload is the message body.
	Payload interface{}
	reply   func(interface{})
	ack     *doneHook
}

// doneHook is the once-only completion callback of an inbox-queued
// delivery. It is a pointer because Delivery is passed by value: every
// copy (including the duplicated-delivery copy) must share one ack.
type doneHook struct {
	once sync.Once
	fn   func()
}

// Done marks the delivery fully processed. Inbox consumers must call it
// after handling each delivery (deferring is fine): Settle's drain
// barrier counts a queued delivery as in flight until its Done, so a
// handler still mutating state cannot race a settler's invariant check.
// Idempotent, and a no-op on fast-lane and hand-constructed deliveries.
func (d Delivery) Done() {
	if d.ack != nil {
		d.ack.once.Do(d.ack.fn)
	}
}

// Reply sends the response back to the caller over the fabric. The
// reply crosses the same route as the request, so it too can be lost,
// delayed, or duplicated. Replying to a one-way message is a no-op.
func (d Delivery) Reply(payload interface{}) {
	if d.reply != nil {
		d.reply(payload)
	}
}

// Endpoint is one registered fabric address: a bounded inbox of
// deliveries plus a close signal, and an optional set of per-kind fast
// lane handlers that bypass the inbox entirely (see SetHandler).
type Endpoint struct {
	addr  Addr
	inbox chan Delivery
	done  chan struct{}
	once  sync.Once
	// queued counts deliveries sitting in (or being handled off) the
	// inbox whose Done has not run yet; Settle waits for it to drain on
	// every open endpoint.
	queued atomic.Int64

	hmu      sync.Mutex
	handlers atomic.Pointer[map[string]func(Delivery) bool]
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Inbox returns the delivery channel the endpoint's owner must drain.
func (e *Endpoint) Inbox() <-chan Delivery { return e.inbox }

// Done is closed when the endpoint closes; inbox-drain loops select on
// it to stop.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// Close marks the endpoint down: pending and future deliveries to it are
// dropped. Idempotent.
func (e *Endpoint) Close() {
	e.once.Do(func() { close(e.done) })
}

// SetHandler registers a fast-lane handler for one message kind:
// matching deliveries are handed to h directly instead of queueing
// through the inbox and the owner's serve goroutine. The fabric's chaos
// (partition, loss, duplication, latency) is applied before dispatch,
// so a fast-lane message suffers exactly the adversities an inbox
// message would.
//
// The contract is strict: h runs on the DELIVERING goroutine — the
// caller's own goroutine for zero-latency routes and loopback — so it
// must never block and must be safe for concurrent invocation. h
// returns true when it consumed the delivery (replied or deliberately
// dropped it) and false to decline: a declined delivery falls back to
// the inbox path and queues for the owner's serve goroutine exactly as
// if no handler were registered, preserving FIFO ordering behind
// whatever the serve loop is doing. Handlers are meant for read-mostly
// request kinds whose work is wait-free (availability queries); state
// mutations stay on the serve loop.
func (e *Endpoint) SetHandler(kind string, h func(Delivery) bool) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	old := e.handlers.Load()
	next := make(map[string]func(Delivery) bool, 2)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[kind] = h
	e.handlers.Store(&next)
}

// dispatch hands d to its kind's fast-lane handler, reporting false
// when no handler is registered, the handler declines the delivery
// (either way it then takes the inbox path), or the endpoint is closed
// (the delivery is dropped like an inbox delivery to a closed endpoint
// would be — the caller observes a missing reply, not an error).
func (e *Endpoint) dispatch(d Delivery) bool {
	m := e.handlers.Load()
	if m == nil {
		return false
	}
	h, ok := (*m)[d.Kind]
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return false
	default:
	}
	return h(d)
}

// Fabric routes messages between endpoints with injectable per-route
// unreliability. Safe for concurrent use.
type Fabric struct {
	mu          sync.Mutex
	rng         *rand.Rand
	defaults    RouteConfig
	endpoints   map[Addr]*Endpoint
	routes      map[pair]RouteConfig
	partitioned map[pair]bool
	breakerCfg  *BreakerConfig
	breakers    map[[2]Addr]*Breaker // keyed by ordered (from, to)
	metrics     *obs.TransportMetrics
	// pending counts asynchronous (delayed or duplicated) deliveries in
	// flight; settleCh, when non-nil, is closed as pending hits zero so
	// Settle can wait for the fabric to drain. A plain WaitGroup cannot
	// express this: a delivered message's reply may legitimately start a
	// new asynchronous send while a settler waits, which is Add-after-Wait.
	pending  int
	settleCh chan struct{}
}

// New creates a fabric. With zero Options the fabric is perfect: every
// call is delivered instantly, exactly once, with no breaker in the way.
func New(opts Options) *Fabric {
	return &Fabric{
		rng:         rand.New(rand.NewSource(opts.Seed)),
		defaults:    opts.Defaults,
		endpoints:   make(map[Addr]*Endpoint),
		routes:      make(map[pair]RouteConfig),
		partitioned: make(map[pair]bool),
		breakerCfg:  opts.Breaker,
		breakers:    make(map[[2]Addr]*Breaker),
		metrics:     obs.NewTransportMetrics(opts.Metrics),
	}
}

// Endpoint registers (or re-registers) the address and returns its
// endpoint. Re-registering replaces the previous endpoint — the fabric
// equivalent of a host process restarting — so a stopped runtime can be
// started again.
func (f *Fabric) Endpoint(addr Addr, depth int) *Endpoint {
	if depth < 1 {
		depth = 1
	}
	ep := &Endpoint{
		addr:  addr,
		inbox: make(chan Delivery, depth),
		done:  make(chan struct{}),
	}
	f.mu.Lock()
	f.endpoints[addr] = ep
	f.mu.Unlock()
	return ep
}

// endpoint resolves an address.
func (f *Fabric) endpoint(addr Addr) (*Endpoint, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.endpoints[addr]
	return ep, ok
}

// SetRoute overrides the route config of the unordered pair (a, b).
func (f *Fabric) SetRoute(a, b Addr, cfg RouteConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes[norm(a, b)] = cfg
}

// Route returns the effective config of the route (a, b).
func (f *Fabric) Route(a, b Addr) RouteConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.routeLocked(a, b)
}

func (f *Fabric) routeLocked(a, b Addr) RouteConfig {
	if cfg, ok := f.routes[norm(a, b)]; ok {
		return cfg
	}
	return f.defaults
}

// ClearRoutes drops every per-route override, restoring the defaults —
// the heal-side of delay injection.
func (f *Fabric) ClearRoutes() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes = make(map[pair]RouteConfig)
}

// Partition cuts the route between a and b in both directions: every
// message and reply between them is silently dropped until Heal.
func (f *Fabric) Partition(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned[norm(a, b)] = true
}

// Heal removes the partition between a and b.
func (f *Fabric) Heal(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.partitioned, norm(a, b))
}

// HealAll removes every partition.
func (f *Fabric) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned = make(map[pair]bool)
}

// Partitioned reports whether the route between a and b is cut.
func (f *Fabric) Partitioned(a, b Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitioned[norm(a, b)]
}

// Partitions lists the currently-cut routes, sorted.
func (f *Fabric) Partitions() [][2]Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][2]Addr, 0, len(f.partitioned))
	for p := range f.partitioned {
		out = append(out, [2]Addr(p))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// breaker returns the breaker guarding calls from one endpoint to
// another, creating it on first use; nil when breakers are disabled.
func (f *Fabric) breaker(from, to Addr) *Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.breakerCfg == nil {
		return nil
	}
	key := [2]Addr{from, to}
	br, ok := f.breakers[key]
	if !ok {
		route := string(from) + "->" + string(to)
		m := f.metrics
		br = NewBreaker(*f.breakerCfg, func(s BreakerState) {
			m.BreakerState(route, float64(s))
		})
		f.breakers[key] = br
	}
	return br
}

// BreakerState reports the state of the breaker on (from, to);
// BreakerClosed when breakers are disabled or the route was never used.
func (f *Fabric) BreakerState(from, to Addr) BreakerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	if br, ok := f.breakers[[2]Addr{from, to}]; ok {
		return br.State()
	}
	return BreakerClosed
}

// Settle blocks until every asynchronous (delayed or duplicated)
// delivery has been handed to its destination or dropped AND every
// inbox-queued delivery on an open endpoint has been handled to
// completion (its consumer called Done), looping until both counts are
// stably zero (a landing delivery's reply may start new asynchronous
// sends). Handler-answered fast-lane calls complete synchronously
// inside the delivering send, so they are covered by the same barrier.
// Deliveries stranded in a closed endpoint's inbox died with its host
// and are excluded. Chaos harnesses call Settle before checking drain
// invariants so no straggler handler can mutate the books after they
// are inspected.
func (f *Fabric) Settle() {
	for {
		f.mu.Lock()
		if f.drainedLocked() {
			f.mu.Unlock()
			return
		}
		if f.settleCh == nil {
			f.settleCh = make(chan struct{})
		}
		ch := f.settleCh
		f.mu.Unlock()
		// The poll guards the one unsignalled transition: an endpoint
		// closing (host crash) with deliveries still queued — those Dones
		// never come, and Close has no fabric reference to wake us.
		select {
		case <-ch:
		case <-time.After(time.Millisecond):
		}
	}
}

// drainedLocked reports whether no delivery is in flight: none pending
// asynchronously and none queued-but-unfinished on any open endpoint.
// Callers hold f.mu.
func (f *Fabric) drainedLocked() bool {
	if f.pending != 0 {
		return false
	}
	for _, ep := range f.endpoints {
		select {
		case <-ep.done:
			continue
		default:
		}
		if ep.queued.Load() != 0 {
			return false
		}
	}
	return true
}

// track registers one asynchronous delivery; untrack retires it and
// wakes settlers when the fabric drains.
func (f *Fabric) track() {
	f.mu.Lock()
	f.pending++
	f.mu.Unlock()
}

func (f *Fabric) untrack() {
	f.mu.Lock()
	f.pending--
	f.wakeLocked()
	f.mu.Unlock()
}

// wakeLocked releases settlers when the fabric has drained.
func (f *Fabric) wakeLocked() {
	if f.settleCh != nil && f.drainedLocked() {
		close(f.settleCh)
		f.settleCh = nil
	}
}

// queueHook charges one inbox-queued delivery to ep and returns the ack
// that retires it. The consumer's Done (or the enqueue failure path)
// must run it exactly once.
func (f *Fabric) queueHook(ep *Endpoint) *doneHook {
	ep.queued.Add(1)
	return &doneHook{fn: func() {
		ep.queued.Add(-1)
		f.mu.Lock()
		f.wakeLocked()
		f.mu.Unlock()
	}}
}

// Call sends payload from one endpoint to another and waits for the
// reply or the context. The request and the reply each independently
// suffer the route's latency, loss, and duplication; a partitioned or
// lossy route therefore surfaces as ctx expiry, never as an unbounded
// block — which is why every caller must bound ctx when the fabric is
// imperfect. kind labels the message family in the metrics.
func (f *Fabric) Call(ctx context.Context, from, to Addr, kind string, payload interface{}) (interface{}, error) {
	ep, ok := f.endpoint(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEndpoint, to)
	}
	f.metrics.Sent(kind)

	// Per-call tracing and latency: both are inert (no clock read, no
	// route-string allocation) unless the caller's trace is recorded or
	// call-latency metrics are on.
	caller := obs.SpanFromContext(ctx)
	timed := caller.Recording() || f.metrics.Enabled()
	var route string
	var start time.Time
	if timed {
		route = string(from) + "->" + string(to)
		start = time.Now()
	}
	cs := caller.Child(kind, route)
	finish := func(status string) {
		if timed {
			f.metrics.Call(route, kind, time.Since(start).Seconds())
		}
		cs.EndStatus(status)
	}

	if from == to {
		// Loopback: the proxy talking to itself never crosses the
		// network. Reliable, instant, breaker-free. A registered fast
		// lane handler runs inline on this goroutine; otherwise the
		// delivery queues through the inbox.
		replyCh := make(chan interface{}, 1)
		d := Delivery{From: from, Kind: kind, Span: cs.Context(), Payload: payload,
			reply: func(resp interface{}) {
				select {
				case replyCh <- resp:
				default:
				}
			}}
		if !ep.dispatch(d) {
			d.ack = f.queueHook(ep)
			select {
			case ep.inbox <- d:
			case <-ep.done:
				d.Done()
				finish("closed")
				return nil, fmt.Errorf("transport: %s: %w", to, ErrClosed)
			case <-ctx.Done():
				d.Done()
				f.metrics.Timeout()
				finish("timeout")
				return nil, fmt.Errorf("transport: call %s->%s (%s): %w", from, to, kind, ctx.Err())
			}
		}
		select {
		case resp := <-replyCh:
			finish(obs.StatusOK)
			return resp, nil
		case <-ep.done:
			// The endpoint crashed under the call. A reply that raced the
			// close still counts; otherwise the queued delivery died with
			// the process and no answer will ever come.
			select {
			case resp := <-replyCh:
				finish(obs.StatusOK)
				return resp, nil
			default:
			}
			finish("closed")
			return nil, fmt.Errorf("transport: %s: %w", to, ErrClosed)
		case <-ctx.Done():
			f.metrics.Timeout()
			finish("timeout")
			return nil, fmt.Errorf("transport: call %s->%s (%s): %w", from, to, kind, ctx.Err())
		}
	}

	br := f.breaker(from, to)
	if br != nil && !br.Allow() {
		f.metrics.FastFail()
		// The refused call still records a terminated child span so the
		// trace tree stays complete (no orphan roots on shed sessions).
		cs.Event(obs.EventBreakerFastFail, route)
		finish("circuit_open")
		return nil, fmt.Errorf("transport: %s->%s: %w", from, to, ErrCircuitOpen)
	}

	// The reply channel holds two slots so a duplicated reply never
	// blocks the replier; Call consumes the first copy.
	replyCh := make(chan interface{}, 2)
	d := Delivery{From: from, Kind: kind, Span: cs.Context(), Payload: payload,
		reply: func(resp interface{}) {
			if reason := f.send(to, from, func(bool) bool {
				select {
				case replyCh <- resp:
				default:
				}
				return true
			}); reason != "" {
				cs.Event(dropEvent(reason), "reply")
			}
		}}
	reqDrop := f.send(from, to, func(dup bool) bool {
		dd := d
		dd.Dup = dup
		// Fast lane first: the route's chaos has already been applied
		// by send, so a handler sees exactly the deliveries (and
		// duplicate copies) the inbox would have.
		if ep.dispatch(dd) {
			return true
		}
		dd.ack = f.queueHook(ep)
		select {
		case ep.inbox <- dd:
			return true
		case <-ep.done:
			dd.Done()
			return false
		}
	})
	if reqDrop != "" {
		cs.Event(dropEvent(reqDrop), "request")
	}

	select {
	case resp := <-replyCh:
		if br != nil {
			br.Success()
		}
		finish(obs.StatusOK)
		return resp, nil
	case <-ep.done:
		// The destination crashed under the call: its queue died with
		// the process, so without a caller deadline the reply would
		// never come. A reply that raced the close still counts.
		select {
		case resp := <-replyCh:
			if br != nil {
				br.Success()
			}
			finish(obs.StatusOK)
			return resp, nil
		default:
		}
		if br != nil {
			br.Failure()
		}
		finish("closed")
		return nil, fmt.Errorf("transport: %s: %w", to, ErrClosed)
	case <-ctx.Done():
		if br != nil {
			br.Failure()
		}
		f.metrics.Timeout()
		// Terminate the span with the most specific known cause: a
		// request leg dropped by a partition or the loss knob explains
		// the missing reply better than a bare timeout.
		switch reqDrop {
		case "partition", "loss":
			finish(reqDrop)
		default:
			finish("timeout")
		}
		return nil, fmt.Errorf("transport: call %s->%s (%s): %w", from, to, kind, ctx.Err())
	}
}

// dropEvent maps a send drop reason to its span event type.
func dropEvent(reason string) string {
	switch reason {
	case "partition":
		return obs.EventPartitionDrop
	case "loss":
		return obs.EventLossDrop
	}
	return "drop_" + reason
}

// send applies the route's chaos to one delivery attempt and hands every
// surviving copy to enq. enq receives whether the copy is the duplicate
// (second) copy and reports whether the destination accepted it (false =
// endpoint closed). Zero-latency single copies are enqueued inline (the
// common perfect-fabric path costs no goroutine); delayed and duplicated
// copies are delivered asynchronously and tracked for Settle. The
// returned reason is non-empty ("partition", "loss") when the delivery
// was dropped synchronously before any copy could depart.
func (f *Fabric) send(from, to Addr, enq func(dup bool) bool) string {
	f.mu.Lock()
	if f.partitioned[norm(from, to)] {
		f.mu.Unlock()
		f.metrics.Dropped("partition")
		return "partition"
	}
	cfg := f.routeLocked(from, to)
	lost := cfg.Loss > 0 && f.rng.Float64() < cfg.Loss
	duplicated := !lost && cfg.Dup > 0 && f.rng.Float64() < cfg.Dup
	f.mu.Unlock()
	if lost {
		f.metrics.Dropped("loss")
		return "loss"
	}
	copies := 1
	if duplicated {
		copies = 2
		f.metrics.Duplicate()
	}
	deliver := func(dup bool) {
		if cfg.Latency > 0 {
			time.Sleep(cfg.Latency)
		}
		if !enq(dup) {
			f.metrics.Dropped("closed")
		}
	}
	if copies == 1 && cfg.Latency == 0 {
		deliver(false)
		return ""
	}
	for i := 0; i < copies; i++ {
		f.track()
		dup := i > 0
		go func() {
			defer f.untrack()
			deliver(dup)
		}()
	}
	return ""
}
