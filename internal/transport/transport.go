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
//
// A call is Go, which hands the request over, followed by Wait, which
// collects the reply; a caller fans out by calling Go for every
// destination before it waits on the first. A receiver answers through
// per-kind handlers (see Endpoint.SetHandler) that run on the
// delivering goroutine. While the fabric is unarmed — nothing
// configured that could happen to a message — every route behaves like
// loopback, and a message costs a function call.
//
// An endpoint made with depth 0 has handlers only: a delivery of a kind
// it has no handler for is dropped (reason "no_handler"), and a direct
// call fails at once. An endpoint made with a positive depth queues
// such deliveries in an inbox of that depth instead, for a consumer
// goroutine to drain.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// errNoHandler fails a direct call to an inbox-less endpoint with no
	// handler for the call's kind: nothing would ever answer it.
	errNoHandler = errors.New("transport: no handler")
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
	// pend is the call of a delivery that crosses no injectable route
	// (see Fabric.Go); its reply is handed straight back. Routed
	// deliveries reply through reply instead.
	pend  *Pending
	reply func(interface{})
	ack   *doneHook
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
// consumer still mutating state cannot race a settler's invariant
// check. Idempotent, and a no-op on handler-answered and
// hand-constructed deliveries.
func (d Delivery) Done() {
	if d.ack != nil {
		d.ack.once.Do(d.ack.fn)
	}
}

// Reply sends the response back to the caller over the fabric. The
// reply crosses the same route as the request, so it too can be lost,
// delayed, or duplicated. Replying to a one-way message is a no-op.
func (d Delivery) Reply(payload interface{}) {
	switch {
	case d.pend != nil:
		d.pend.deliver(payload)
	case d.reply != nil:
		d.reply(payload)
	}
}

// Endpoint is one registered fabric address: a set of per-kind handlers
// (see SetHandler), a close signal, and, when made with a positive
// depth, a bounded inbox for the deliveries no handler takes.
type Endpoint struct {
	// inbox is nil on an endpoint made with depth 0.
	inbox chan Delivery
	done  chan struct{}
	once  sync.Once
	// queued counts deliveries sitting in (or being handled off) the
	// inbox whose Done has not run yet; Settle waits for it to drain on
	// every open endpoint.
	queued atomic.Int64

	hmu      sync.Mutex
	handlers atomic.Pointer[map[string]func(Delivery)]
}

// Inbox returns the delivery channel the endpoint's owner must drain;
// nil on an endpoint made with depth 0.
func (e *Endpoint) Inbox() <-chan Delivery { return e.inbox }

// Done is closed when the endpoint closes; inbox-drain loops select on
// it to stop.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// Close marks the endpoint down: pending and future deliveries to it are
// dropped. Idempotent.
func (e *Endpoint) Close() {
	e.once.Do(func() { close(e.done) })
}

// closed reports whether Close has run.
func (e *Endpoint) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// SetHandler registers the handler for one message kind: matching
// deliveries are handed to h. The fabric's chaos (partition, loss,
// duplication, latency) is applied before dispatch, so h sees exactly
// the deliveries and duplicate copies the route lets through; on a
// route with nothing to inject the delivery is a plain function call
// (see Fabric.Go).
//
// The contract is strict: h runs on the DELIVERING goroutine — the
// caller's own goroutine for zero-latency routes and loopback — so it
// must be safe for concurrent invocation, must not wait on anything
// but short critical sections, and must reply, if at all, before it
// returns. A delivery h leaves unanswered is seen by its caller as a
// lost message.
func (e *Endpoint) SetHandler(kind string, h func(Delivery)) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	old := e.handlers.Load()
	next := make(map[string]func(Delivery), 2)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[kind] = h
	e.handlers.Store(&next)
}

// dispatch hands d to its kind's handler and reports whether one ran.
// None runs when the kind has no handler or the endpoint is closed; the
// caller then queues the delivery or drops it (see Fabric.enqueue).
func (e *Endpoint) dispatch(d Delivery) bool {
	m := e.handlers.Load()
	if m == nil {
		return false
	}
	h, ok := (*m)[d.Kind]
	if !ok || e.closed() {
		return false
	}
	h(d)
	return true
}

// Fabric routes messages between endpoints with injectable per-route
// unreliability. Safe for concurrent use.
type Fabric struct {
	mu       sync.Mutex
	rng      *rand.Rand
	defaults RouteConfig
	// endpoints is a copy-on-write snapshot: Endpoint replaces the map
	// under mu, and every send reads it without a lock.
	endpoints   atomic.Pointer[map[Addr]*Endpoint]
	routes      map[pair]RouteConfig
	partitioned map[pair]bool
	breakerCfg  *BreakerConfig
	breakers    map[[2]Addr]*Breaker // keyed by ordered (from, to)
	metrics     *obs.TransportMetrics
	// armed is set while anything can happen to a message in transit: a
	// non-zero default route, a route override, a partition, or a
	// breaker. rearmLocked recomputes it after each of those changes.
	// While it is clear, Go delivers as a direct call.
	armed atomic.Bool
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
	f := &Fabric{
		rng:         rand.New(rand.NewSource(opts.Seed)),
		defaults:    opts.Defaults,
		routes:      make(map[pair]RouteConfig),
		partitioned: make(map[pair]bool),
		breakerCfg:  opts.Breaker,
		breakers:    make(map[[2]Addr]*Breaker),
		metrics:     obs.NewTransportMetrics(opts.Metrics),
	}
	f.endpoints.Store(&map[Addr]*Endpoint{})
	f.rearmLocked()
	return f
}

// rearmLocked recomputes the armed flag from the fabric's
// configuration. Callers hold f.mu (or own f exclusively).
func (f *Fabric) rearmLocked() {
	f.armed.Store(f.defaults != (RouteConfig{}) || len(f.routes) > 0 ||
		len(f.partitioned) > 0 || f.breakerCfg != nil)
}

// Endpoint registers (or re-registers) the address and returns its
// endpoint. Re-registering replaces the previous endpoint — the fabric
// equivalent of a host process restarting — so a stopped runtime can be
// started again. depth is the capacity of the endpoint's inbox; with
// depth 0 (or less) it has none, and a delivery no handler takes is
// dropped rather than stranded in a queue nobody drains.
func (f *Fabric) Endpoint(addr Addr, depth int) *Endpoint {
	ep := &Endpoint{done: make(chan struct{})}
	if depth > 0 {
		ep.inbox = make(chan Delivery, depth)
	}
	f.mu.Lock()
	old := *f.endpoints.Load()
	next := make(map[Addr]*Endpoint, len(old)+1)
	for a, e := range old {
		next[a] = e
	}
	next[addr] = ep
	f.endpoints.Store(&next)
	f.mu.Unlock()
	return ep
}

// SetRoute overrides the route config of the unordered pair (a, b).
func (f *Fabric) SetRoute(a, b Addr, cfg RouteConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes[norm(a, b)] = cfg
	f.rearmLocked()
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

// Partition cuts the route between a and b in both directions: every
// message and reply between them is silently dropped until Heal.
func (f *Fabric) Partition(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned[norm(a, b)] = true
	f.rearmLocked()
}

// Heal removes the partition between a and b.
func (f *Fabric) Heal(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.partitioned, norm(a, b))
	f.rearmLocked()
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

// Settle blocks until every asynchronous (delayed or duplicated)
// delivery has been handed to its destination or dropped AND every
// inbox-queued delivery on an open endpoint has been handled to
// completion (its consumer called Done), looping until both counts are
// stably zero (a landing delivery's reply may start new asynchronous
// sends). Handler-answered deliveries complete synchronously inside
// the delivery that hands them over, so they are covered by the same
// barrier.
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
	for _, ep := range *f.endpoints.Load() {
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

// Pending is one request in flight, started by Go and collected by
// Wait. Wait must be called exactly once.
type Pending struct {
	f        *Fabric
	ctx      context.Context
	ep       *Endpoint
	from, to Addr
	kind     string
	// err, when set, is the call's result decided before anything was
	// delivered: no endpoint, or an open breaker.
	err error
	// resp and replied hold a direct delivery's reply, written by the
	// handler on Go's own goroutine. replyCh carries the reply
	// of every other delivery; nil while the call was direct.
	resp    interface{}
	replied bool
	replyCh chan reply
	// br guards a routed call; reqDrop is why its request leg was
	// dropped before any copy departed.
	br      *Breaker
	reqDrop string
	// Call span and latency: the route string and clock read exist only
	// when the caller's trace records or call metrics are on.
	cs    obs.ActiveSpan
	route string
	start time.Time
	timed bool
}

// reply is a response in transit back to its caller, stamped with its
// arrival when the call is timed: the caller may collect it later,
// while it waits on other calls, and the call's span and latency end
// at the arrival.
type reply struct {
	resp interface{}
	at   time.Time
}

// Call sends payload from one endpoint to another and waits for the
// reply or the context: Go followed by Wait. The request and the reply
// each independently suffer the route's latency, loss, and duplication;
// a partitioned or lossy route therefore surfaces as ctx expiry, never
// as an unbounded block — which is why every caller must bound ctx when
// the fabric is imperfect. kind labels the message family in the
// metrics.
func (f *Fabric) Call(ctx context.Context, from, to Addr, kind string, payload interface{}) (interface{}, error) {
	return f.Go(ctx, from, to, kind, payload).Wait()
}

// Go hands payload to the fabric and returns without waiting for the
// reply, so a caller can send to many endpoints and then Wait on each.
//
// A message on a route with nothing to inject — loopback, or any route
// while the fabric is unarmed (zero Defaults, no route override, no
// partition, no breaker) — is a direct call: the destination's handler
// runs on this goroutine and its reply is in hand when Go returns, with
// no fabric lock, no random draw and no reply channel. Without a
// handler the delivery queues through the destination's inbox, or, on
// an endpoint with none, the call fails at once. Every other route
// takes the chaos path: breaker, loss, duplication and latency, each
// leg drawn from the fabric's seeded source.
//
// Go never blocks on a full inbox: the delivery then waits for room on
// its own goroutine, bounded by ctx, so one stalled destination cannot
// hold up the caller's other messages.
func (f *Fabric) Go(ctx context.Context, from, to Addr, kind string, payload interface{}) *Pending {
	ep := (*f.endpoints.Load())[to]
	if ep == nil {
		return &Pending{err: fmt.Errorf("%w: %s", ErrNoEndpoint, to)}
	}
	f.metrics.Sent(kind)
	pd := &Pending{f: f, ctx: ctx, ep: ep, from: from, to: to, kind: kind}
	// Per-call tracing and latency: both are inert (no clock read, no
	// route-string allocation) unless the caller's trace is recorded or
	// call-latency metrics are on.
	caller := obs.SpanFromContext(ctx)
	if caller.Recording() || f.metrics.Enabled() {
		pd.timed = true
		pd.route = string(from) + "->" + string(to)
		pd.start = time.Now()
	}
	pd.cs = caller.Child(kind, pd.route)
	if from == to || !f.armed.Load() {
		pd.direct(payload)
	} else {
		pd.routed(payload)
	}
	return pd
}

// direct delivers over a route that cannot lose, delay or duplicate:
// the handler answers in place, and a kind without one goes through the
// inbox with a one-slot reply channel, or fails the call when the
// endpoint has no inbox.
func (pd *Pending) direct(payload interface{}) {
	d := Delivery{From: pd.from, Kind: pd.kind, Span: pd.cs.Context(), Payload: payload, pend: pd}
	if pd.ep.dispatch(d) {
		if pd.replied {
			pd.finish(obs.StatusOK, time.Time{})
		}
		return
	}
	if pd.ep.inbox == nil && !pd.ep.closed() {
		pd.f.metrics.Dropped("no_handler")
		pd.finish("no_handler", time.Time{})
		pd.err = fmt.Errorf("transport: %s->%s (%s): %w", pd.from, pd.to, pd.kind, errNoHandler)
		return
	}
	pd.replyCh = make(chan reply, 1)
	pd.f.enqueue(pd.ctx, pd.ep, d)
}

// deliver records the reply to a direct delivery. The first reply wins.
func (pd *Pending) deliver(resp interface{}) {
	if pd.replyCh == nil {
		if !pd.replied {
			pd.resp, pd.replied = resp, true
		}
		return
	}
	select {
	case pd.replyCh <- pd.stamp(resp):
	default:
	}
}

// stamp wraps a reply, with its arrival time when the call is timed.
func (pd *Pending) stamp(resp interface{}) reply {
	if !pd.timed {
		return reply{resp: resp}
	}
	return reply{resp: resp, at: time.Now()}
}

// routed sends over an armed route: the breaker may fail the call fast,
// and the request and its reply each cross send's chaos.
func (pd *Pending) routed(payload interface{}) {
	f, ep, cs := pd.f, pd.ep, pd.cs
	pd.br = f.breaker(pd.from, pd.to)
	if pd.br != nil && !pd.br.Allow() {
		f.metrics.FastFail()
		// The refused call still records a terminated child span so the
		// trace tree stays complete (no orphan roots on shed sessions).
		cs.Event(obs.EventBreakerFastFail, pd.route)
		pd.finish("circuit_open", time.Time{})
		pd.err = fmt.Errorf("transport: %s->%s: %w", pd.from, pd.to, ErrCircuitOpen)
		return
	}
	// The reply channel holds two slots so a duplicated reply never
	// blocks the replier; Wait consumes the first copy.
	replyCh := make(chan reply, 2)
	pd.replyCh = replyCh
	from, to := pd.from, pd.to
	d := Delivery{From: from, Kind: pd.kind, Span: cs.Context(), Payload: payload,
		reply: func(resp interface{}) {
			if reason := f.send(to, from, func(bool) {
				select {
				case replyCh <- pd.stamp(resp):
				default:
				}
			}); reason != "" {
				cs.Event(dropEvent(reason), "reply")
			}
		}}
	pd.reqDrop = f.send(from, to, func(dup bool) {
		dd := d
		dd.Dup = dup
		// The route's chaos has already been applied by send, so a
		// handler sees exactly the deliveries (and duplicate copies) an
		// inbox would have.
		if ep.dispatch(dd) {
			return
		}
		f.enqueue(pd.ctx, ep, dd)
	})
	if pd.reqDrop != "" {
		cs.Event(dropEvent(pd.reqDrop), "request")
	}
}

// enqueue queues d on ep's inbox, charged to the drain barrier until
// its consumer calls Done. A full inbox does not hold up the sender:
// the delivery waits for room on its own goroutine and is dropped, its
// ack run, once the endpoint closes or ctx ends — the caller's Wait
// then reports the closure or the timeout. On an endpoint without an
// inbox the delivery is dropped at once.
func (f *Fabric) enqueue(ctx context.Context, ep *Endpoint, d Delivery) {
	if ep.inbox == nil {
		if ep.closed() {
			f.metrics.Dropped("closed")
		} else {
			f.metrics.Dropped("no_handler")
		}
		return
	}
	d.ack = f.queueHook(ep)
	select {
	case ep.inbox <- d:
		return
	case <-ep.done:
		d.Done()
		f.metrics.Dropped("closed")
		return
	default:
	}
	go func() {
		select {
		case ep.inbox <- d:
		case <-ep.done:
			d.Done()
			f.metrics.Dropped("closed")
		case <-ctx.Done():
			d.Done()
		}
	}()
}

// Wait returns the reply, or the call's failure: ErrNoEndpoint,
// ErrCircuitOpen, ErrClosed when the destination closed before
// answering, or the context's error once it ends first.
func (pd *Pending) Wait() (interface{}, error) {
	if pd.err != nil {
		return nil, pd.err
	}
	if pd.replied {
		// Answered in place: Go already finished the call.
		return pd.resp, nil
	}
	// A reply already in hand wins over a deadline that expired while
	// the caller was waiting on other calls.
	select {
	case r := <-pd.replyCh:
		return pd.ok(r)
	default:
	}
	select {
	case r := <-pd.replyCh:
		return pd.ok(r)
	case <-pd.ep.done:
		// The destination crashed under the call: its queue died with
		// the process, so without a caller deadline the reply would
		// never come. A reply that raced the close still counts.
		select {
		case r := <-pd.replyCh:
			return pd.ok(r)
		default:
		}
		if pd.br != nil {
			pd.br.Failure()
		}
		pd.finish("closed", time.Time{})
		return nil, fmt.Errorf("transport: %s: %w", pd.to, ErrClosed)
	case <-pd.ctx.Done():
		if pd.br != nil {
			pd.br.Failure()
		}
		pd.f.metrics.Timeout()
		// Terminate the span with the most specific known cause: a
		// request leg dropped by a partition or the loss knob explains
		// the missing reply better than a bare timeout.
		switch pd.reqDrop {
		case "partition", "loss":
			pd.finish(pd.reqDrop, time.Time{})
		default:
			pd.finish("timeout", time.Time{})
		}
		return nil, fmt.Errorf("transport: call %s->%s (%s): %w", pd.from, pd.to, pd.kind, pd.ctx.Err())
	}
}

// ok completes a call that got its reply.
func (pd *Pending) ok(r reply) (interface{}, error) {
	if pd.br != nil {
		pd.br.Success()
	}
	pd.finish(obs.StatusOK, r.at)
	return r.resp, nil
}

// finish records the call's latency and ends its span, as of end or,
// when end is zero, now. Untimed calls have neither.
func (pd *Pending) finish(status string, end time.Time) {
	if !pd.timed {
		return
	}
	if end.IsZero() {
		end = time.Now()
	}
	pd.f.metrics.Call(pd.route, pd.kind, end.Sub(pd.start).Seconds())
	pd.cs.EndStatusAt(status, end)
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
// surviving copy to enq, telling it whether the copy is the duplicate
// (second) one. Zero-latency single copies are handed over inline;
// delayed and duplicated copies are delivered asynchronously and
// tracked for Settle. The returned reason is non-empty ("partition",
// "loss") when the delivery was dropped before any copy could depart.
func (f *Fabric) send(from, to Addr, enq func(dup bool)) string {
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
	if !duplicated && cfg.Latency == 0 {
		enq(false)
		return ""
	}
	copies := 1
	if duplicated {
		copies = 2
		f.metrics.Duplicate()
	}
	for i := 0; i < copies; i++ {
		f.track()
		dup := i > 0
		go func() {
			defer f.untrack()
			if cfg.Latency > 0 {
				time.Sleep(cfg.Latency)
			}
			enq(dup)
		}()
	}
	return ""
}
