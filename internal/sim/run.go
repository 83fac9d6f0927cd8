package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/qrg"
	"qosres/internal/stats"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/trace"
	"qosres/internal/tracetree"
	"qosres/internal/workload"
)

// Result is the outcome of one simulation run.
type Result struct {
	Config  Config
	Metrics *stats.Metrics
	// Pool exposes the environment's brokers for post-run inspection
	// (capacity, leaked reservations) by tests and experiments.
	Pool *broker.Pool
	// Capacities records the randomly drawn initial total amount of each
	// resource.
	Capacities map[string]float64
}

// Run executes one simulation run and returns its metrics. Runs are
// fully deterministic in Config (including Seed).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("sim: fault injection needs concurrent clients; use RunChaos")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	env, err := buildEnvironment(cfg, rng)
	if err != nil {
		return nil, err
	}
	planner, err := makePlanner(cfg, rng)
	if err != nil {
		return nil, err
	}

	metrics := stats.NewMetrics()
	if cfg.TimelineWindow > 0 {
		ts, err := stats.NewTimeSeries(cfg.TimelineWindow)
		if err != nil {
			return nil, err
		}
		metrics.Timeline = ts
	}
	sched := newScheduler()
	var rt *proxy.Runtime
	if cfg.UseRuntime {
		rt, err = env.buildRuntime(cfg, simClock{sched: sched}, proxy.Options{})
		if err != nil {
			return nil, err
		}
		rt.Start()
		defer rt.Stop()
	}
	sched.at(env.nextArrivalGap(rng), evArrival, nil)
	if cfg.PopularityInterval > 0 && cfg.PopularityInterval < cfg.Duration {
		sched.at(cfg.PopularityInterval, evPopularity, nil)
	}

	for {
		ev, ok := sched.next()
		if !ok {
			break
		}
		now := sched.now
		switch ev.kind {
		case evArrival:
			if now > cfg.Duration {
				continue
			}
			if rt != nil {
				sh := env.drawSession(cfg, rng)
				if err := env.handleArrivalRuntime(cfg, rt, planner, metrics, sched, now, sh); err != nil {
					return nil, err
				}
			} else if err := env.handleArrival(cfg, rng, planner, metrics, sched, now); err != nil {
				return nil, err
			}
			sched.at(now+env.nextArrivalGap(rng), evArrival, nil)
		case evRelease:
			if err := ev.release.release(now); err != nil {
				return nil, fmt.Errorf("sim: release at %g: %v", float64(now), err)
			}
			env.ins.released.Inc()
			env.ins.simTime.Set(float64(now))
			env.ins.sampleUtilization(env.pool, ev.release.resources)
			env.tracer.Trace(trace.Event{
				At: now, Kind: trace.Released, Session: ev.release.id,
				Service: ev.release.service, Class: ev.release.class,
			})
		case evPopularity:
			if now > cfg.Duration {
				continue
			}
			env.redrawPopularity(rng)
			sched.at(now+cfg.PopularityInterval, evPopularity, nil)
		}
	}

	return &Result{
		Config:     cfg,
		Metrics:    metrics,
		Pool:       env.pool,
		Capacities: env.capacities,
	}, nil
}

// makePlanner instantiates the configured algorithm.
func makePlanner(cfg Config, rng *rand.Rand) (core.Planner, error) {
	switch cfg.Algorithm {
	case AlgBasic:
		return core.Basic{NoTieBreak: cfg.NoTieBreak}, nil
	case AlgTradeoff:
		return core.Tradeoff{}, nil
	case AlgRandom:
		return core.NewRandom(rng.Int63()), nil
	}
	return nil, fmt.Errorf("sim: unknown algorithm %q", cfg.Algorithm)
}

// environment is the instantiated figure-9 world of one run.
type environment struct {
	topology   *topo.Topology
	pool       *broker.Pool
	capacities map[string]float64
	// services[s][m] is service S(s+1) with fat multiplier variant m
	// (variant 0 is the normal requirement).
	services [][]*svc.Service
	// multipliers[m] is the requirement multiplier of variant m.
	multipliers []float64
	popularity  [4]float64
	meanGap     broker.Time
	nextSession uint64
	tracer      trace.Tracer
	// ins holds the run's metric handles; inert when Config.Obs is nil.
	ins instruments
	// tracerec records causal distributed-trace span trees of session
	// establishments; nil (TraceSample 0) costs the hot path nothing.
	tracerec *obs.TraceRecorder
	// templates serves compiled QRG templates to both execution modes.
	templates *qrg.TemplateCache
}

// buildEnvironment draws capacities, registers all brokers, pre-creates
// the end-to-end network resources the sessions can need, and builds the
// service variants.
func buildEnvironment(cfg Config, rng *rand.Rand) (*environment, error) {
	env := &environment{
		topology:   topo.Figure9(),
		capacities: make(map[string]float64),
		meanGap:    broker.Time(60 / cfg.Rate),
		tracer:     cfg.Tracer,
	}
	if env.tracer == nil {
		env.tracer = trace.Nop{}
	}
	env.ins = newInstruments(cfg.Obs)
	env.templates = qrg.NewTemplateCache(cfg.Obs)
	if cfg.TraceSample > 0 {
		// Distributed tracing: head-sample admissions into span trees,
		// rescue errored ones, and export retained trees to the Tracer
		// (when set) as span_end/span_event lines for offline analysis.
		var sink obs.TraceSink
		if cfg.Tracer != nil {
			sink = tracetree.NewSink(cfg.Tracer)
		}
		env.tracerec = obs.NewTraceRecorder(cfg.Obs, obs.TraceOptions{
			Sample:       cfg.TraceSample,
			RescueErrors: true,
			Seed:         cfg.Seed + 2654435769,
			Sink:         sink,
		})
	}
	// Only stale observations (section 5.2.4) ever read broker history,
	// at lags up to StaleE; the runtime observes the present alone.
	history := cfg.StaleE + 2*cfg.AlphaWindow
	if cfg.UseRuntime {
		history = 0
	}
	env.pool = broker.NewPoolWindow(env.topology, cfg.AlphaWindow, history)

	capDraw := func() float64 {
		return cfg.CapacityMin + rng.Float64()*(cfg.CapacityMax-cfg.CapacityMin)
	}
	// The initial total amount of each resource is randomly set between
	// CapacityMin and CapacityMax (paper: 1000..4000 units). Draw in a
	// fixed order for determinism: server CPUs, then links by ID.
	for i := 1; i <= topo.NumServers; i++ {
		c := capDraw()
		b, err := env.pool.AddLocal(workload.ResCPU, topo.ServerHost(i), c)
		if err != nil {
			return nil, err
		}
		env.capacities[b.Resource()] = c
	}
	for _, l := range env.topology.Links() {
		c := capDraw()
		b, err := env.pool.AddLink(l.ID, c)
		if err != nil {
			return nil, err
		}
		env.capacities[b.Resource()] = c
	}
	// Pre-create the network resources sessions use: every ordered
	// server pair (server -> proxy) and every proxy -> domain pair.
	for i := 1; i <= topo.NumServers; i++ {
		for j := 1; j <= topo.NumServers; j++ {
			if i == j {
				continue
			}
			if _, err := env.pool.Network(topo.ServerHost(i), topo.ServerHost(j)); err != nil {
				return nil, err
			}
		}
	}
	for d := 1; d <= topo.NumDomains; d++ {
		p := topo.ProxyServerFor(d)
		if _, err := env.pool.Network(topo.ServerHost(p), topo.DomainHost(d)); err != nil {
			return nil, err
		}
	}

	// Service variants: normal plus one per fat multiplier.
	env.multipliers = append([]float64{1}, cfg.FatMultipliers...)
	base := cfg.Workload.BaseScale
	if base <= 0 {
		base = 1
	}
	env.services = make([][]*svc.Service, 4)
	for s := 0; s < 4; s++ {
		env.services[s] = make([]*svc.Service, len(env.multipliers))
		for m, mult := range env.multipliers {
			opts := workload.Options{
				BaseScale:      base * mult,
				DiversityRatio: cfg.Workload.DiversityRatio,
			}
			env.services[s][m] = workload.Chain(fmt.Sprintf("S%d", s+1), workload.FamilyOf(s+1), opts)
		}
	}
	env.redrawPopularity(rng)
	return env, nil
}

// redrawPopularity re-draws the probability that each service is
// requested, the dynamic demand shift of section 5.1.
func (env *environment) redrawPopularity(rng *rand.Rand) {
	for i := range env.popularity {
		env.popularity[i] = 0.1 + 0.9*rng.Float64()
	}
}

// nextArrivalGap draws a Poisson-process interarrival gap.
func (env *environment) nextArrivalGap(rng *rand.Rand) broker.Time {
	return broker.Time(rng.ExpFloat64()) * env.meanGap
}

// sessionShape is the drawn heterogeneity of one session.
type sessionShape struct {
	domain   int
	service  int // 1-based
	variant  int // index into env.multipliers; 0 = normal
	fat      bool
	long     bool
	duration broker.Time
}

// drawSession draws a session per section 5.1: a random domain, a
// service other than S⌈d/2⌉ weighted by the current popularity, the
// normal/fat and short/long classes, and the duration.
func (env *environment) drawSession(cfg Config, rng *rand.Rand) sessionShape {
	sh := sessionShape{domain: 1 + rng.Intn(topo.NumDomains)}
	excluded := topo.ProxyServerFor(sh.domain)

	total := 0.0
	for s := 1; s <= 4; s++ {
		if s != excluded {
			total += env.popularity[s-1]
		}
	}
	pick := rng.Float64() * total
	sh.service = 0
	for s := 1; s <= 4; s++ {
		if s == excluded {
			continue
		}
		pick -= env.popularity[s-1]
		sh.service = s
		if pick <= 0 {
			break
		}
	}

	if rng.Float64() < cfg.FatRatio {
		sh.fat = true
		sh.variant = 1 + rng.Intn(len(cfg.FatMultipliers))
	}
	if rng.Float64() < cfg.LongRatio {
		sh.long = true
		sh.duration = cfg.DurationSplit + broker.Time(rng.Float64())*(cfg.DurationMax-cfg.DurationSplit)
	} else {
		sh.duration = cfg.DurationMin + broker.Time(rng.Float64())*(cfg.DurationSplit-cfg.DurationMin)
	}
	return sh
}

// sessionResources returns the binding and the concrete resource IDs of
// one session's placement: the server component on the service's main
// server, the proxy component on the domain's proxy server, the client
// in the domain.
func sessionResources(sh sessionShape) (svc.Binding, []string) {
	server := topo.ServerHost(sh.service)
	proxy := topo.ServerHost(topo.ProxyServerFor(sh.domain))
	client := topo.DomainHost(sh.domain)

	cpuS := broker.LocalResourceID(workload.ResCPU, server)
	cpuP := broker.LocalResourceID(workload.ResCPU, proxy)
	netSP := broker.NetResourceID(server, proxy)
	netPC := broker.NetResourceID(proxy, client)

	binding := svc.Binding{
		workload.CompServer: {workload.ResCPU: cpuS},
		workload.CompProxy:  {workload.ResCPU: cpuP, workload.ResNet: netSP},
		workload.CompClient: {workload.ResNet: netPC},
	}
	return binding, []string{cpuS, cpuP, netSP, netPC}
}

// handleArrival processes one session arrival end to end: observe
// availability, build the QRG, plan, reserve, and schedule the release.
func (env *environment) handleArrival(cfg Config, rng *rand.Rand, planner core.Planner,
	metrics *stats.Metrics, sched *scheduler, now broker.Time) error {

	sh := env.drawSession(cfg, rng)
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

	// Distributed-trace root for this arrival's establishment. The stages
	// are timed exactly as the runtime path times them, under the same
	// span names, so both execution modes produce comparable histograms
	// and trees; every exit path below ends the root. All of it is inert
	// (no lock, no clock, no allocation) when the run records no metrics
	// and the arrival is not sampled.
	host := string(topo.ServerHost(sh.service))
	root := env.tracerec.Root(obs.StageEstablish, host)
	stages := env.ins.stages

	st := obs.BeginStage(stages.Snapshot, root.Child(obs.StageSnapshot, host))
	var snap *broker.Snapshot
	var err error
	if cfg.StaleE > 0 {
		lag := make(map[string]broker.Time, len(resources))
		for _, r := range resources {
			l := broker.Time(rng.Float64()) * cfg.StaleE
			if l > now {
				l = now
			}
			lag[r] = l
		}
		snap, err = env.pool.StaleSnapshot(now, resources, lag)
	} else {
		snap, err = env.pool.Snapshot(now, resources)
	}
	st.End(err, "error")
	if err != nil {
		root.EndStatus("error")
		return err
	}
	env.ins.sampleAlpha(snap)

	st = obs.BeginStage(stages.Build, root.Child(obs.StageBuild, host))
	contention, _ := qrg.ContentionByName(cfg.Contention)
	// Instantiate the compiled (service, binding) template against this
	// snapshot; plan-for-plan identical to a from-scratch qrg.Build.
	var g *qrg.Graph
	tpl, err := env.templates.Get(service, binding)
	if err == nil {
		g, err = tpl.InstantiateWithOptions(snap, qrg.BuildOptions{Contention: contention})
	}
	st.End(err, "error")
	if err != nil {
		root.EndStatus("error")
		return err
	}

	st = obs.BeginStage(stages.Plan, root.Child(obs.StagePlan, host))
	plan, err := planner.Plan(g)
	st.End(err, "infeasible")
	// The plan owns all its data; the graph's buffers can go back to the
	// template pool for the next arrival.
	tpl.Recycle(g)
	// Planning is done and the graph is dead past this point: the
	// snapshot's maps go back to the pool for the next arrival.
	env.pool.RecycleSnapshot(snap)
	snap = nil
	if errors.Is(err, core.ErrInfeasible) {
		env.ins.planFailed.Inc()
		metrics.PlanFailures++
		metrics.ObserveSessionAt(float64(now), class, false, 0)
		metrics.ObserveService(service.Name, false, 0)
		env.tracer.Trace(trace.Event{
			At: now, Kind: trace.PlanFailed, Session: sid,
			Service: service.Name, Class: class.String(),
		})
		root.EndStatus("infeasible")
		return nil
	}
	if err != nil {
		root.EndStatus("error")
		return err
	}
	env.ins.planned.Inc()
	metrics.ObservePlan(family, plan.PathLevels, plan.Bottleneck)
	env.tracer.Trace(trace.Event{
		At: now, Kind: trace.Planned, Session: sid,
		Service: service.Name, Class: class.String(),
		Level: plan.EndToEnd.Name, Rank: plan.Rank,
		Psi: plan.Psi, Bottleneck: plan.Bottleneck, Path: plan.PathLevels,
	})

	st = obs.BeginStage(stages.Reserve, root.Child(obs.StageReserve, host))
	res, err := env.pool.ReserveAll(now, plan.Requirement())
	if errors.Is(err, broker.ErrInsufficient) {
		st.End(err, "refused")
	} else {
		st.End(err, "error")
	}
	if err != nil {
		if !errors.Is(err, broker.ErrInsufficient) {
			root.EndStatus("error")
			return err
		}
		// Only possible under stale observations: the plan looked
		// feasible against the (old) snapshot but the resources moved.
		env.ins.reserveFailed.Inc()
		env.ins.rollbacks.Inc()
		metrics.ReserveFailures++
		metrics.ObserveSessionAt(float64(now), class, false, 0)
		metrics.ObserveService(service.Name, false, 0)
		env.tracer.Trace(trace.Event{
			At: now, Kind: trace.ReserveFailed, Session: sid,
			Service: service.Name, Class: class.String(),
			Level: plan.EndToEnd.Name, Rank: plan.Rank,
			Psi: plan.Psi, Bottleneck: plan.Bottleneck, Path: plan.PathLevels,
		})
		root.EndStatus("refused")
		return nil
	}
	root.End()
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
		resources: resources, reservation: res,
	})
	return nil
}
