package sim

import (
	"errors"
	"fmt"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/proxy"
	"qosres/internal/stats"
	"qosres/internal/topo"
	"qosres/internal/trace"
	"qosres/internal/transport"
	"qosres/internal/wal"
	"qosres/internal/workload"
)

// This file routes the simulation through the runtime architecture of
// section 3 when Config.UseRuntime is set: QoSProxies deployed on every
// figure-9 host, resource brokers owned by their hosts (end-to-end
// network brokers receiver-side), and every session established via the
// three-phase protocol. The direct path and the runtime path produce
// identical results (see TestRuntimeModeMatchesDirect); the runtime path
// exists so the whole evaluation exercises the message-passing
// implementation rather than a shortcut.

// simClock adapts the scheduler's clock to the proxy runtime.
type simClock struct {
	sched *scheduler
}

// Now implements proxy.Clock.
func (c simClock) Now() broker.Time { return c.sched.now }

// buildRuntime deploys a QoSProxy per figure-9 host and registers every
// broker of the environment with its owning host's proxy.
func (env *environment) buildRuntime(cfg Config, clock proxy.Clock) (*proxy.Runtime, error) {
	opts := proxy.Options{
		// Admission retries are bounded by the run config; no backoff
		// sleep, since a simulated run must never block on wall-clock
		// time.
		AdmitPolicy: &proxy.AdmitPolicy{MaxRetries: cfg.MaxAdmitRetries},
		// Share the run's template cache (instrumented into the run
		// registry) so hit/miss counters cover both execution modes.
		Templates: env.templates,
		// The runtime records into the run's registry, sharing the stage
		// histograms and counters of the direct path, so both execution
		// modes have one latency and admission vocabulary.
		Metrics: cfg.Obs,
		// Distributed tracing gates itself on TraceSample, not on the
		// metrics registry: the runtime roots one trace per Establish,
		// stage spans and fabric-call spans nest under it, and remote
		// participants parent their spans via the propagated context.
		Tracing: env.tracerec,
	}
	if env.templates == nil {
		// Reference runs rebuild every graph from scratch.
		opts.Templates = proxy.NoTemplates
	}
	if cfg.Faults != nil {
		// Chaos mode: lease every session's holds so a silent (orphaned)
		// session can never strand capacity.
		opts.LeaseTTL = cfg.Faults.LeaseTTL
		if cfg.Faults.WALDir != "" {
			// Durable chaos: journal every 2PC transition so crash/restart
			// injection can replay the books.
			log, err := wal.Open(wal.Options{Dir: cfg.Faults.WALDir})
			if err != nil {
				return nil, err
			}
			opts.WAL = log
		}
		if tc := cfg.Faults.Transport; tc != nil {
			// Unreliable-messaging mode: replace the default perfect fabric
			// with one that delays, loses, and duplicates per the config,
			// optionally guarded by per-route circuit breakers, and bound
			// the number of concurrently admitted sessions.
			seed := tc.Seed
			if seed == 0 {
				seed = cfg.Seed + 15485863
			}
			var bc *transport.BreakerConfig
			if tc.BreakerThreshold > 0 {
				bc = &transport.BreakerConfig{
					Threshold: tc.BreakerThreshold,
					Cooldown:  tc.BreakerCooldown,
				}
			}
			opts.Transport = transport.New(transport.Options{
				Seed: seed,
				Defaults: transport.RouteConfig{
					Latency: tc.Latency,
					Loss:    tc.Loss,
					Dup:     tc.Dup,
				},
				Breaker: bc,
				Metrics: cfg.Obs,
			})
			opts.MaxInFlight = tc.MaxInFlight
		}
	}
	rt := proxy.NewRuntime(clock, opts)
	for _, h := range env.topology.Hosts() {
		if _, err := rt.AddHost(h); err != nil {
			return nil, err
		}
	}
	// Server CPUs at their servers; link brokers at the link's first
	// endpoint (the router-side bandwidth broker).
	for i := 1; i <= topo.NumServers; i++ {
		h := topo.ServerHost(i)
		b, ok := env.pool.Get(broker.LocalResourceID(workload.ResCPU, h))
		if !ok {
			return nil, fmt.Errorf("sim: missing cpu broker for %s", h)
		}
		if err := rt.Deploy(h, b); err != nil {
			return nil, err
		}
	}
	// End-to-end network brokers at the receiver side (the paper's RSVP
	// compatibility rule).
	deployNet := func(from, to topo.HostID) error {
		n, err := env.pool.Network(from, to)
		if err != nil {
			return err
		}
		return rt.Deploy(to, n)
	}
	for i := 1; i <= topo.NumServers; i++ {
		for j := 1; j <= topo.NumServers; j++ {
			if i != j {
				if err := deployNet(topo.ServerHost(i), topo.ServerHost(j)); err != nil {
					return nil, err
				}
			}
		}
	}
	for d := 1; d <= topo.NumDomains; d++ {
		if err := deployNet(topo.ServerHost(topo.ProxyServerFor(d)), topo.DomainHost(d)); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil && cfg.Faults.RecoverWAL {
		// Restart recovery: replay a surviving WAL into the freshly
		// deployed books before the runtime starts serving, so a restarted
		// deployment resumes with its pre-crash reservations intact.
		if err := rt.Recover(); err != nil {
			return nil, err
		}
	}
	rt.Start()
	return rt, nil
}

// handleArrivalRuntime is handleArrival routed through the three-phase
// QoSProxy protocol, with the service's main server as main QoSProxy.
func (env *environment) handleArrivalRuntime(cfg Config, rt *proxy.Runtime,
	planner core.Planner, metrics *stats.Metrics, sched *scheduler, now broker.Time,
	sh sessionShape) error {

	class := stats.ClassOf(sh.fat, sh.long)
	service := env.services[sh.service-1][sh.variant]
	family := workload.FamilyOf(sh.service).String()
	binding, resources := sessionResources(sh)

	env.nextSession++
	sid := env.nextSession
	env.ins.arrivals.Inc()
	env.ins.simTime.Set(float64(now))
	env.tracer.Trace(trace.Event{
		At: now, Kind: trace.Arrival, Session: sid,
		Service: service.Name, Class: class.String(),
	})

	// Establish records every stage histogram itself, establish included.
	session, err := rt.Establish(topo.ServerHost(sh.service), proxy.SessionSpec{
		Service: service, Binding: binding, Planner: planner,
	})
	if errors.Is(err, core.ErrInfeasible) {
		env.ins.planFailed.Inc()
		metrics.PlanFailures++
		metrics.ObserveSessionAt(float64(now), class, false, 0)
		metrics.ObserveService(service.Name, false, 0)
		env.tracer.Trace(trace.Event{
			At: now, Kind: trace.PlanFailed, Session: sid,
			Service: service.Name, Class: class.String(),
		})
		return nil
	}
	if errors.Is(err, broker.ErrInsufficient) {
		// The plan fit its snapshot but was refused at commit time and the
		// retry budget ran out — only possible under concurrent admission
		// (the stress harness); single-threaded runs always commit what
		// they plan. Book it as a reservation failure, like the direct
		// path under stale observations. (The rollback counter was already
		// advanced inside Establish, once per refused commit attempt.)
		env.ins.reserveFailed.Inc()
		metrics.ReserveFailures++
		metrics.ObserveSessionAt(float64(now), class, false, 0)
		metrics.ObserveService(service.Name, false, 0)
		env.tracer.Trace(trace.Event{
			At: now, Kind: trace.ReserveFailed, Session: sid,
			Service: service.Name, Class: class.String(),
		})
		return nil
	}
	if err != nil {
		return err
	}
	plan := session.Plan
	env.ins.planned.Inc()
	metrics.ObservePlan(family, plan.PathLevels, plan.Bottleneck)
	env.tracer.Trace(trace.Event{
		At: now, Kind: trace.Planned, Session: sid,
		Service: service.Name, Class: class.String(),
		Level: plan.EndToEnd.Name, Rank: plan.Rank,
		Psi: plan.Psi, Bottleneck: plan.Bottleneck, Path: plan.PathLevels,
	})
	env.ins.reserved.Inc()
	env.ins.observeAcceptedPlan(plan)
	env.ins.sampleUtilization(env.pool, resources)
	metrics.ObserveSessionAt(float64(now), class, true, plan.Rank)
	metrics.ObserveService(service.Name, true, plan.Rank)
	env.tracer.Trace(trace.Event{
		At: now, Kind: trace.Reserved, Session: sid,
		Service: service.Name, Class: class.String(),
		Level: plan.EndToEnd.Name, Rank: plan.Rank,
		Psi: plan.Psi, Bottleneck: plan.Bottleneck, Path: plan.PathLevels,
	})
	sched.at(now+sh.duration, evRelease, &liveSession{
		id: sid, service: service.Name, class: class.String(),
		resources: resources, proxySession: session,
	})
	return nil
}
