package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
// went stale), Establish replans against a fresh snapshot at once, up
// to MaxRetries more times.
type AdmitPolicy struct {
	// MaxRetries is the number of replanning attempts after the first
	// refusal; 0 means a single attempt, fail-fast.
	MaxRetries int
}

// defaultAdmitPolicy retries replanning up to three times.
var defaultAdmitPolicy = AdmitPolicy{MaxRetries: 3}

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
	seq      uint64 // see AdmissionSeq

	mu          sync.Mutex
	state       SessionState
	plan        *core.Plan // live plan; starts equal to Plan
	reservation *reservationSet
	repairs     int
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
// Every call past the host checks, shed, refused or admitted, is timed
// into the establish stage histogram of Options.Metrics.
//
// When the runtime has a lease TTL configured (Options.LeaseTTL), the
// commit leases the new session's holds: they expire and are reclaimed
// unless the session heartbeats (Heartbeat) before the TTL elapses.
func (rt *Runtime) EstablishContext(ctx context.Context, mainHost topo.HostID, spec SessionSpec) (*Session, error) {
	_, ok, started := rt.proxyOn(mainHost)
	if !ok {
		return nil, fmt.Errorf("proxy: no QoSProxy on main host %s", mainHost)
	}
	if !started {
		return nil, fmt.Errorf("proxy: runtime not started")
	}

	// Trace root and establish stage: one per admission attempt
	// sequence. Every exit path below ends it, so shed or refused
	// sessions are timed too and never leave an orphan root behind.
	root := rt.tracer.Root(obs.StageEstablish, string(mainHost))
	est := obs.BeginStage(rt.stages.Establish, root)
	ctx = obs.ContextWithSpan(ctx, root)

	// Overload protection: shed rather than queue when the runtime is
	// saturated with in-flight admissions.
	if err := rt.gate.TryAcquire(); err != nil {
		rt.admit.Shed.Inc()
		root.Event(obs.EventShed, string(mainHost))
		est.End(err, "shed")
		return nil, fmt.Errorf("proxy: establish on %s: %w", mainHost, err)
	}
	defer rt.gate.Release()

	plan, res, err := rt.admitOnce(ctx, mainHost, spec)
	if err != nil {
		est.End(err, admitStatus(err))
		return nil, err
	}
	s := &Session{
		Plan:        plan,
		runtime:     rt,
		mainHost:    mainHost,
		spec:        spec,
		seq:         res.seq,
		plan:        plan,
		reservation: res,
		qosMarkAt:   rt.clock.Now(),
	}
	rt.register(s)
	est.End(nil, "")
	return s, nil
}

// AdmissionSeq returns the sequence number of the two-phase-commit
// request that admitted the session. It is unique within the runtime
// and, over one write-ahead log, across restarts: Recover advances the
// sequence past every request in the log. (A session that reserves
// nothing commits nothing to the log, so only its number could recur
// after a restart.) A serving front end can name sessions by it.
func (s *Session) AdmissionSeq() uint64 { return s.seq }

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

// admitOnce runs phases 1-3 (with the bounded replanning retry loop)
// for one spec and returns the admitted plan and its reservation. It is
// the shared admission engine of Establish and the repair layer. The
// context carries the admission's root span (when tracing): each stage
// hangs a child span under it, and the fabric calls of phases 1 and 3
// parent under their stage's span in turn.
func (rt *Runtime) admitOnce(ctx context.Context, mainHost topo.HostID, spec SessionSpec) (*core.Plan, *reservationSet, error) {
	if spec.Service == nil || spec.Planner == nil {
		return nil, nil, fmt.Errorf("proxy: session spec missing service or planner")
	}
	tpl, err := rt.templates.Get(spec.Service, spec.Binding)
	if err != nil {
		return nil, nil, err
	}
	rte := rt.routeOf(tpl)
	stages, admit, policy := *rt.stages, rt.admit, rt.policy
	root := obs.SpanFromContext(ctx)

	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			root.Event(obs.EventDeadlineExceeded, "admission")
			if lastErr != nil {
				return nil, nil, fmt.Errorf("proxy: admission abandoned at deadline after %d attempt(s): %w", attempt, lastErr)
			}
			return nil, nil, fmt.Errorf("proxy: admission abandoned at deadline: %w", err)
		}
		// Phases 1-2 against a fresh snapshot: retrying against the stale
		// one would just recompute the refused plan. A planning failure
		// against a fresh snapshot is not staleness; retrying cannot help.
		plan, err := rt.planPhases(ctx, root, stages, mainHost, spec, tpl, rte, nil)
		if err != nil {
			return nil, nil, err
		}

		// Phase 3: two-phase validate-at-commit across the plan's owning
		// proxies. A refusal leaves zero residual holds and is retried
		// here against a fresh snapshot.
		st := obs.BeginStage(stages.Reserve, root.Child(obs.StageReserve, string(mainHost)))
		res, err := rt.commitPlan(obs.ContextWithSpan(ctx, st.Span()), mainHost, rte, plan.Requirement())
		if err != nil && errors.Is(err, broker.ErrInsufficient) {
			st.End(err, "refused")
		} else {
			st.End(err, "error")
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
	}
}

// planPhases runs admission phases 1 and 2 once: collect availability
// from the owning proxies along the template's route, in parallel
// (crediting the snapshot with credit, a renegotiating session's own
// live holds), instantiate the session's compiled QRG template, and run
// the planner locally at the main proxy.
// Each phase is timed into stages and spanned under root; renegotiation
// passes inert ones.
func (rt *Runtime) planPhases(ctx context.Context, root obs.ActiveSpan, stages obs.PlanStages,
	mainHost topo.HostID, spec SessionSpec, tpl *qrg.Template, rte *route, credit qos.ResourceVector) (*core.Plan, error) {
	host := string(mainHost)
	st := obs.BeginStage(stages.Snapshot, root.Child(obs.StageSnapshot, host))
	snap, err := rt.collectAvailability(obs.ContextWithSpan(ctx, st.Span()), mainHost, rte)
	st.End(err, "error")
	if err != nil {
		return nil, err
	}
	for r, amt := range credit {
		snap.Avail[r] += amt
	}

	st = obs.BeginStage(stages.Build, root.Child(obs.StageBuild, host))
	g, err := tpl.Instantiate(snap)
	st.End(err, "error")
	if err != nil {
		return nil, err
	}
	st = obs.BeginStage(stages.Plan, root.Child(obs.StagePlan, host))
	plan, err := spec.Planner.Plan(g)
	st.End(err, "infeasible")
	// Plans own their data; recycle the graph buffers for the next
	// instantiation.
	tpl.Recycle(g)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// collectAvailability is phase 1: send every owning proxy on the route
// its query over the fabric from the main proxy's address, then collect
// the replies.
//
// Degradation ladder: a leg whose proxy replies in time contributes
// fresh reports (which also refresh the runtime's availability cache). A
// leg whose call fails — partition, loss burning the whole deadline,
// open breaker — degrades per resource: the last cached report, aged
// conservatively by its α availability-change index (avail × min(α, 1):
// a shrinking-availability trend discounts the stale value, a growing
// one is never extrapolated), or zero availability when no report was
// ever cached (excluding the unreachable host from planning). The
// two-phase commit re-validates real availability anyway, so optimism
// here can waste a retry but never over-commit.
func (rt *Runtime) collectAvailability(ctx context.Context, mainHost topo.HostID, rte *route) (*broker.Snapshot, error) {
	if rte.err != nil {
		return nil, rte.err
	}
	from := transport.Addr(mainHost)
	var buf [8]*transport.Pending
	calls := buf[:0]
	for _, l := range rte.legs {
		calls = append(calls, rt.fabric.Go(ctx, from, transport.Addr(l.host), msgAvailability, l.query))
	}
	snap := &broker.Snapshot{
		At:    rt.clock.Now(),
		Avail: make(qos.ResourceVector, rte.size),
		Alpha: make(map[string]float64, rte.size),
	}
	span := obs.SpanFromContext(ctx)
	var firstErr error
	for i, call := range calls {
		l := &rte.legs[i]
		resp, err := call.Wait()
		if err != nil {
			// Transport failure: degrade to the cache.
			span.Event(obs.EventDegradedToCached, string(l.host))
			for _, r := range l.resources {
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
		res, ok := resp.(availabilityReply)
		if !ok {
			res.err = fmt.Errorf("proxy: unexpected availability reply %T", resp)
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

// armLease leases a renegotiated or repaired reservation when the
// runtime has a TTL configured; without one the holds stay permanent.
// An admission needs no arming: its commit already leased every share.
func (rt *Runtime) armLease(res *reservationSet) error {
	if rt.leaseTTL <= 0 {
		return nil
	}
	return res.SetLease(rt.clock.Now() + rt.leaseTTL)
}
