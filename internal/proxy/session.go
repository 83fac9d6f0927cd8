package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/transport"
)

// SessionSpec describes one service session to establish: the service's
// QoS-Resource Model, the session's resource binding, and the planning
// algorithm to run at the main QoSProxy.
type SessionSpec struct {
	Service *svc.Service
	Binding svc.Binding
	Planner core.Planner
}

// AdmitPolicy bounds the validate-at-commit retry loop of Establish.
// When a computed plan is refused at commit time (its phase-1 snapshot
// went stale), Establish replans against a fresh snapshot up to
// MaxRetries more times, sleeping Backoff<<attempt between attempts.
type AdmitPolicy struct {
	// MaxRetries is the number of replanning attempts after the first
	// refusal; 0 means a single attempt, fail-fast.
	MaxRetries int
	// Backoff is the base sleep before retry attempt 1; attempt k waits
	// Backoff<<(k-1), capped at maxAdmitBackoff. Zero disables sleeping,
	// which is what simulated (manual-clock) deployments want.
	Backoff time.Duration
	// Jitter, when set, draws each sleep uniformly from [0, d] (full
	// jitter) where d is the capped exponential above, so a mass refusal
	// does not re-synchronize every refused client into a retry storm.
	// The draw comes from a source seeded with JitterSeed, so tests
	// replay deterministically.
	Jitter bool
	// JitterSeed seeds the jitter source; two runtimes with different
	// seeds de-correlate their retry schedules.
	JitterSeed int64
}

// DefaultAdmitPolicy retries replanning up to three times with no
// backoff sleep.
var DefaultAdmitPolicy = AdmitPolicy{MaxRetries: 3}

// maxAdmitBackoff caps the exponential backoff between admission
// attempts.
const maxAdmitBackoff = 100 * time.Millisecond

// backoff returns the sleep before retry attempt k (1-based):
// Backoff<<(k-1), capped at maxAdmitBackoff. The shift overflows for
// large attempt counts — a 1ns base shifted 63 times is negative, 64
// times is zero — so any non-positive or over-cap result collapses to
// the cap rather than to "no sleep" or a panic-length wait. With Jitter
// enabled and a non-nil source, the result is drawn uniformly from
// [0, capped] instead (full jitter; the cap still bounds every draw).
func (p AdmitPolicy) backoff(attempt int, jitter *lockedRand) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	var d time.Duration
	if attempt > 63 {
		// The shift itself is undefined territory past the word size;
		// don't even compute it.
		d = maxAdmitBackoff
	} else {
		d = p.Backoff << uint(attempt-1)
		if d > maxAdmitBackoff || d <= 0 {
			d = maxAdmitBackoff
		}
	}
	if p.Jitter && jitter != nil {
		d = time.Duration(jitter.Int63n(int64(d) + 1))
	}
	return d
}

// wait sleeps before retry attempt k (1-based), bounded by the context.
// A zero Backoff is a no-op so simulated time is never mixed with
// wall-clock sleeps.
func (p AdmitPolicy) wait(ctx context.Context, attempt int, jitter *lockedRand) {
	d := p.backoff(attempt, jitter)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// SessionState is the lifecycle state of an established session.
type SessionState int

const (
	// StateActive: the session holds a live reservation.
	StateActive SessionState = iota
	// StateReleased: the session was released by its owner.
	StateReleased
	// StateFailed: the session was terminated by the runtime — a fault
	// invalidated its reservation and no feasible repair existed, or its
	// lease expired underneath it.
	StateFailed
)

// String renders the state for logs and test failures.
func (s SessionState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateReleased:
		return "released"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// ErrSessionLost is returned by Heartbeat when the session's reservation
// was reclaimed by a lease-expiry sweep: the session no longer holds its
// resources and must be re-established from scratch.
var ErrSessionLost = errors.New("proxy: session reservation lost to lease expiry")

// Session is an established end-to-end reservation: the plan plus the
// multi-resource reservation backing it.
//
// Plan is the initially admitted plan and never changes; CurrentPlan
// returns the live plan, which a fault-driven repair may have replaced
// (possibly at a lower QoS level). All teardown — owner Release,
// repair-failure termination, lease loss — funnels through one
// lock-held path, so a session's reservation is released exactly once
// no matter how many paths race to end it.
type Session struct {
	// Plan is the initially admitted plan (immutable).
	Plan *core.Plan

	runtime  *Runtime
	mainHost topo.HostID
	spec     SessionSpec

	mu          sync.Mutex
	state       SessionState
	plan        *core.Plan // live plan; starts equal to Plan
	reservation reservation
	// touches is the set of concrete resources the live reservation
	// holds capacity on (including route links of network resources);
	// the repair layer matches failed resources against it.
	touches map[string]bool
	repairs int
	// qosSeconds accumulates delivered QoS-seconds (rank × held time)
	// over completed level segments; qosMarkAt is where the current
	// segment started. The sum folds into the runtime's delivered total
	// at teardown.
	qosSeconds float64
	qosMarkAt  broker.Time
}

// Establish runs the three-phase protocol with no deadline — the
// unbounded in-process semantics, appropriate over a perfect fabric.
// Deployments with a fallible transport should call EstablishContext
// with a deadline instead.
func (rt *Runtime) Establish(mainHost topo.HostID, spec SessionSpec) (*Session, error) {
	return rt.EstablishContext(context.Background(), mainHost, spec)
}

// EstablishContext runs the full three-phase protocol of section 4.2
// from the main QoSProxy on mainHost, bounded by ctx:
//
// Phase 1 queries, in parallel over the transport fabric, the QoSProxies
// owning the session's resources for availability reports. A participant
// that cannot be reached before the deadline degrades instead of
// blocking: its resources are planned from the last cached report, aged
// by the α availability-change index, or treated as unavailable when no
// report was ever seen. Phase 2 builds the QRG and runs the planner
// locally. Phase 3 commits the plan with an idempotent two-phase commit
// across the owning proxies (see twophase.go): every broker's current
// availability is re-validated before holds are created, all-or-nothing
// per host and abort-all across hosts. A refusal leaves zero residual
// holds; because it means the phase-1 snapshot went stale under
// concurrent admission, Establish then replans against a fresh snapshot,
// bounded by the runtime's AdmitPolicy and the context.
//
// When the runtime bounds in-flight admissions (Options.MaxInFlight),
// calls beyond the bound fail immediately with transport.ErrOverloaded.
//
// When the runtime has a lease TTL configured (Options.LeaseTTL), the new
// session's holds are leased: they expire and are reclaimed unless the
// session heartbeats (Heartbeat) before the TTL elapses.
func (rt *Runtime) EstablishContext(ctx context.Context, mainHost topo.HostID, spec SessionSpec) (*Session, error) {
	rt.mu.Lock()
	_, ok := rt.proxies[mainHost]
	started := rt.started
	rt.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("proxy: no QoSProxy on main host %s", mainHost)
	}
	if !started {
		return nil, fmt.Errorf("proxy: runtime not started")
	}

	// Trace root: one trace per admission attempt sequence. Every exit
	// path below terminates it, so shed or refused sessions never leave
	// an orphan root behind.
	root := rt.tracer.Root(obs.StageEstablish, string(mainHost))
	ctx = obs.ContextWithSpan(ctx, root)

	// Overload protection: shed rather than queue when the runtime is
	// saturated with in-flight admissions.
	if err := rt.gate.TryAcquire(); err != nil {
		rt.admit.Shed.Inc()
		root.Event(obs.EventShed, string(mainHost))
		root.EndStatus("shed")
		return nil, fmt.Errorf("proxy: establish on %s: %w", mainHost, err)
	}
	defer rt.gate.Release()

	plan, res, err := rt.admitOnce(ctx, mainHost, spec)
	if err != nil {
		root.EndStatus(admitStatus(err))
		return nil, err
	}
	s := &Session{
		Plan:        plan,
		runtime:     rt,
		mainHost:    mainHost,
		spec:        spec,
		plan:        plan,
		reservation: res,
		qosMarkAt:   rt.clock.Now(),
	}
	s.adoptReservationLocked(res)
	if err := rt.armLease(res); err != nil {
		// Either a broker of the plan does not support leases, or the
		// holds vanished between commit and arming — a crash's amnesia
		// window on a participant, or a sweep after the clock outran the
		// commit's lease. The session never owned what it lost.
		_ = res.Release(rt.clock.Now())
		root.EndStatus("error")
		if errors.Is(err, broker.ErrUnknownReservation) {
			return nil, fmt.Errorf("proxy: establish on %s: %w: %v", mainHost, ErrSessionLost, err)
		}
		return nil, err
	}
	rt.register(s)
	root.End()
	return s, nil
}

// admitStatus maps an admission error to a span status.
func admitStatus(err error) string {
	switch {
	case err == nil:
		return obs.StatusOK
	case errors.Is(err, core.ErrInfeasible):
		return "infeasible"
	case errors.Is(err, broker.ErrInsufficient):
		return "refused"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline_exceeded"
	case errors.Is(err, transport.ErrCircuitOpen):
		return "circuit_open"
	default:
		return "error"
	}
}

// stageSpan couples one admission stage's histogram observation (with a
// trace-ID exemplar when the trace is sampled) with a child span of the
// admission trace. Inert — no clock read, no allocation — when neither
// metrics nor tracing is on.
type stageSpan struct {
	h     *obs.Histogram
	span  obs.ActiveSpan
	tid   string
	start time.Time
	on    bool
}

// startStageSpan begins one stage under the admission's root span.
func startStageSpan(h *obs.Histogram, parent obs.ActiveSpan, name, scope string) stageSpan {
	st := stageSpan{h: h, span: parent.Child(name, scope), tid: parent.TraceID()}
	if st.h != nil || st.span.Recording() {
		st.start = time.Now()
		st.on = true
	}
	return st
}

// end records the stage latency (exemplared with the trace ID when
// sampled) and terminates the child span: StatusOK when err is nil,
// status otherwise.
func (st stageSpan) end(err error, status string) {
	if !st.on {
		return
	}
	st.h.ObserveExemplar(time.Since(st.start).Seconds(), st.tid)
	st.span.EndErr(err, status)
}

// admitOnce runs phases 1-3 (with the bounded replanning retry loop)
// for one spec and returns the admitted plan and its reservation. It is
// the shared admission engine of Establish and the repair layer. The
// context carries the admission's root span (when tracing): each stage
// hangs a child span under it, and the fabric calls of phases 1 and 3
// parent under their stage's span in turn.
func (rt *Runtime) admitOnce(ctx context.Context, mainHost topo.HostID, spec SessionSpec) (*core.Plan, reservation, error) {
	resources, err := sessionResourceSet(spec)
	if err != nil {
		return nil, nil, err
	}
	stages, admit, policy := rt.stages, rt.admit, rt.policy
	tpl := rt.templateFor(spec)
	root := obs.SpanFromContext(ctx)
	host := string(mainHost)

	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			root.Event(obs.EventDeadlineExceeded, "admission")
			if lastErr != nil {
				return nil, nil, fmt.Errorf("proxy: admission abandoned at deadline after %d attempt(s): %w", attempt, lastErr)
			}
			return nil, nil, fmt.Errorf("proxy: admission abandoned at deadline: %w", err)
		}
		// Phase 1: collect availability from the owning proxies, in
		// parallel. Each attempt takes a fresh snapshot: retrying against
		// the stale one would just recompute the refused plan.
		st := startStageSpan(stages.Snapshot, root, obs.StageSnapshot, host)
		snap, err := rt.collectAvailability(obs.ContextWithSpan(ctx, st.span), mainHost, resources)
		st.end(err, "error")
		if err != nil {
			return nil, nil, err
		}

		// Phase 2: local computation at the main proxy. The compiled
		// template (shared by every attempt and every session of this
		// (service, binding) pair) yields the same graph as qrg.Build.
		st = startStageSpan(stages.Build, root, obs.StageBuild, host)
		var g *qrg.Graph
		if tpl != nil {
			g, err = tpl.Instantiate(snap)
		} else {
			g, err = qrg.Build(spec.Service, spec.Binding, snap)
		}
		st.end(err, "error")
		if err != nil {
			return nil, nil, err
		}
		st = startStageSpan(stages.Plan, root, obs.StagePlan, host)
		plan, err := spec.Planner.Plan(g)
		st.end(err, "infeasible")
		if tpl != nil {
			// Plans own their data; recycle the graph buffers for the
			// next instantiation.
			tpl.Recycle(g)
		}
		if err != nil {
			// Planning failure against a fresh snapshot is not staleness;
			// retrying cannot help.
			return nil, nil, err
		}

		// Phase 3: two-phase validate-at-commit across the plan's owning
		// proxies. A refusal leaves zero residual holds and is retried
		// here against a fresh snapshot.
		st = startStageSpan(stages.Reserve, root, obs.StageReserve, host)
		res, err := rt.commitPlan(obs.ContextWithSpan(ctx, st.span), mainHost, plan.Requirement())
		if err != nil && errors.Is(err, broker.ErrInsufficient) {
			st.end(err, "refused")
		} else {
			st.end(err, "error")
		}
		if err == nil {
			return plan, res, nil
		}
		if !errors.Is(err, broker.ErrInsufficient) {
			return nil, nil, fmt.Errorf("proxy: commit failed: %w", err)
		}
		// The plan fit its snapshot but not the brokers' current state:
		// a concurrent admission won the race. Count the refusal (the
		// atomic commit left nothing to roll back, but the attempt itself
		// is a rolled-back admission) and replan if the policy allows.
		admit.StaleRejects.Inc()
		admit.Rollbacks.Inc()
		lastErr = err
		if attempt >= policy.MaxRetries {
			return nil, nil, fmt.Errorf("proxy: admission refused after %d attempt(s): %w", attempt+1, lastErr)
		}
		admit.Retries.Inc()
		root.Event(obs.EventRetry, fmt.Sprintf("attempt %d", attempt+2))
		if policy.Backoff > 0 {
			root.Event(obs.EventBackoff, "")
		}
		policy.wait(ctx, attempt+1, rt.jitter)
	}
}

// sessionResourceSet lists the concrete resources the session's QRG can
// touch: every binding target of every component.
func sessionResourceSet(spec SessionSpec) ([]string, error) {
	if spec.Service == nil || spec.Planner == nil {
		return nil, fmt.Errorf("proxy: session spec missing service or planner")
	}
	seen := make(map[string]bool)
	var out []string
	for _, cid := range spec.Service.ComponentIDs() {
		for _, concrete := range spec.Binding[cid] {
			if !seen[concrete] {
				seen[concrete] = true
				out = append(out, concrete)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("proxy: session binding names no resources")
	}
	return out, nil
}

// collectAvailability is phase 1: group the resources by owning host and
// query all owning proxies concurrently over the fabric from the main
// proxy's address.
//
// Degradation ladder: a group whose proxy replies in time contributes
// fresh reports (which also refresh the runtime's availability cache). A
// group whose call fails — partition, loss burning the whole deadline,
// open breaker — degrades per resource: the last cached report, aged
// conservatively by its α availability-change index (avail × min(α, 1):
// a shrinking-availability trend discounts the stale value, a growing
// one is never extrapolated), or zero availability when no report was
// ever cached (excluding the unreachable host from planning). The
// two-phase commit re-validates real availability anyway, so optimism
// here can waste a retry but never over-commit.
func (rt *Runtime) collectAvailability(ctx context.Context, mainHost topo.HostID, resources []string) (*broker.Snapshot, error) {
	groups := make(map[topo.HostID][]string)
	for _, r := range resources {
		host, err := rt.hostFor(r)
		if err != nil {
			return nil, err
		}
		groups[host] = append(groups[host], r)
	}
	fabric := rt.fabric
	from := transport.Addr(mainHost)
	type result struct {
		host    topo.HostID
		rs      []string
		reports []broker.Report
		err     error // handler error (terminal)
		degrade bool  // transport failure: fall back to the cache
	}
	results := make(chan result, len(groups))
	for host, rs := range groups {
		go func(host topo.HostID, rs []string) {
			resp, err := fabric.Call(ctx, from, transport.Addr(host), msgAvailability, availabilityRequest{resources: rs})
			if err != nil {
				results <- result{host: host, rs: rs, degrade: true}
				return
			}
			rep, ok := resp.(availabilityReply)
			if !ok {
				results <- result{host: host, rs: rs, err: fmt.Errorf("proxy: unexpected availability reply %T", resp)}
				return
			}
			results <- result{host: host, rs: rs, reports: rep.reports, err: rep.err}
		}(host, rs)
	}
	snap := &broker.Snapshot{
		At:    rt.clock.Now(),
		Avail: make(qos.ResourceVector, len(resources)),
		Alpha: make(map[string]float64, len(resources)),
	}
	span := obs.SpanFromContext(ctx)
	var firstErr error
	for range groups {
		res := <-results
		if res.degrade {
			span.Event(obs.EventDegradedToCached, string(res.host))
			for _, r := range res.rs {
				if cached, ok := rt.cachedReport(r); ok {
					age := cached.Alpha
					if age > 1 {
						age = 1
					}
					if age < 0 {
						age = 0
					}
					snap.Avail[r] = cached.Avail * age
					snap.Alpha[r] = cached.Alpha
				} else {
					// Never heard from this host: exclude it from the
					// plan rather than guess.
					snap.Avail[r] = 0
					snap.Alpha[r] = 1
				}
			}
			continue
		}
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		rt.storeReports(res.reports)
		for _, rep := range res.reports {
			snap.Avail[rep.Resource] = rep.Avail
			snap.Alpha[rep.Resource] = rep.Alpha
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return snap, nil
}

// adoptReservationLocked records a reservation's touch set on the
// session. Callers either hold s.mu or own the session exclusively
// (construction).
func (s *Session) adoptReservationLocked(res reservation) {
	s.touches = make(map[string]bool)
	for _, r := range res.Touches() {
		s.touches[r] = true
	}
}

// CurrentPlan returns the session's live plan: the initially admitted
// one, or the latest repair's plan after a fault-driven re-admission.
func (s *Session) CurrentPlan() *core.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// State returns the session's lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Repairs returns how many fault-driven re-admissions the session has
// survived.
func (s *Session) Repairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairs
}

// terminateLocked is the single teardown path: every way a session ends
// — owner Release, repair failure, lease loss — lands here with s.mu
// held. The first caller moves the session out of StateActive, releases
// the reservation, and unregisters it; later callers (and concurrent
// racers, serialized by s.mu) find nothing left to do. This is what
// makes Release racing a failure-driven teardown safe: the reservation
// is read and cleared under the same lock that decides the state
// transition, so it can be released at most once.
func (s *Session) terminateLocked(to SessionState) error {
	if s.state != StateActive {
		return nil
	}
	s.state = to
	res := s.reservation
	s.reservation = nil
	s.touches = nil
	now := s.runtime.clock.Now()
	s.qosAccrueLocked(now)
	s.runtime.addDeliveredQoS(s.qosSeconds)
	s.qosSeconds = 0
	s.runtime.unregister(s)
	if res == nil {
		return nil
	}
	return res.Release(now)
}

// qosAccrueLocked closes the current QoS-seconds segment at its rank
// and starts a new one at now. Called under s.mu whenever the session's
// level changes (renegotiation, repair) and at teardown.
func (s *Session) qosAccrueLocked(now broker.Time) {
	if s.plan != nil && now > s.qosMarkAt {
		s.qosSeconds += float64(now-s.qosMarkAt) * float64(s.plan.Rank)
	}
	s.qosMarkAt = now
}

// Release terminates the session's reservations. It is idempotent, and
// safe against concurrent fault-driven teardown: whichever path wins
// releases the holds, the other is a no-op.
func (s *Session) Release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terminateLocked(StateReleased)
}

// Heartbeat renews the session's reservation lease for another TTL from
// the runtime clock's now. On a runtime without a lease TTL it is a
// no-op. If a lease sweep already reclaimed one of the session's holds
// — the session went silent past its TTL, e.g. across a main-proxy
// crash — the session is terminated (surviving holds released) and
// ErrSessionLost is returned.
func (s *Session) Heartbeat() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateActive {
		return ErrSessionLost
	}
	ttl := s.runtime.leaseTTL
	if ttl <= 0 || s.reservation == nil {
		return nil
	}
	err := s.reservation.SetLease(s.runtime.clock.Now() + ttl)
	if err == nil {
		return nil
	}
	if errors.Is(err, broker.ErrUnknownReservation) {
		// The sweep won: part of the reservation is gone. Release the
		// survivors (terminateLocked tolerates the reclaimed parts) and
		// report the loss.
		_ = s.terminateLocked(StateFailed)
		return fmt.Errorf("%w: %v", ErrSessionLost, err)
	}
	return err
}

// armLease leases a freshly admitted reservation when the runtime has a
// TTL configured; without one the holds stay permanent.
func (rt *Runtime) armLease(res reservation) error {
	if rt.leaseTTL <= 0 {
		return nil
	}
	return res.SetLease(rt.clock.Now() + rt.leaseTTL)
}
