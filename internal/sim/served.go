package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"qosres/internal/adapt"
	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/spec"
	"qosres/internal/svc"
	"qosres/internal/topo"
	"qosres/internal/wal"
)

// This file adapts the figure-9 environment into a long-lived serving
// deployment (cmd/qosserved): the same QoSProxy runtime the chaos
// harness exercises, but driven by wall-clock time and external
// establish/heartbeat/teardown requests instead of a discrete-event
// scheduler. The WAL makes it restartable — a ServedEnv opened with
// Recover over a surviving log replays the books before serving.

// ServedOptions configures a serving environment.
type ServedOptions struct {
	// Seed drives the environment build (capacities, workload tables)
	// and the session sampler. Restarting with the same seed rebuilds
	// the identical environment, which is what makes WAL replay
	// meaningful across process restarts.
	Seed int64
	// Rate parameterizes the sampled session mix (sessions per 60 TUs in
	// the underlying config); it does not pace anything by itself. 0
	// defaults to 60.
	Rate float64
	// LeaseTTL leases every established session's holds: they expire
	// this many TUs (= seconds of wall time) after the last heartbeat.
	// 0 disables leasing — then an abandoned client strands its holds
	// until teardown.
	LeaseTTL broker.Time
	// WALDir, when non-empty, write-ahead-logs every 2PC transition so
	// the books survive a process restart.
	WALDir string
	// Recover replays an existing WAL in WALDir into the books before
	// serving starts, expiring leases that lapsed while down. Requires
	// WALDir.
	Recover bool
	// Registry, when non-nil, receives runtime metrics (also WAL and
	// recovery counters); serve it over /metrics with obs.NewMux.
	Registry *obs.Registry
	// Clock overrides the runtime clock; nil uses a fresh wall clock at
	// one TU per second, so lease TTLs keep their meaning.
	// Tests substitute a manual clock to force lease expiry.
	Clock proxy.Clock
	// Adapt, when non-nil, arms the mid-session adaptation controller
	// over the deployment's brokers. The caller paces it (cmd/qosserved
	// ticks it on wall-clock time via Controller).
	Adapt *adapt.Policy
}

// ServedEnv is a live serving deployment: the figure-9 topology, its
// brokers and QoSProxies, and a sampler that draws paper-shaped session
// documents for clients that do not bring their own.
type ServedEnv struct {
	mu      sync.Mutex
	rng     *rand.Rand
	cfg     Config
	env     *environment
	rt      *proxy.Runtime
	planner core.Planner
	clock   proxy.Clock
	ctrl    *adapt.Controller
}

// NewServedEnv builds the environment and deploys the runtime. The
// returned env is serving (Establish works) until Close.
func NewServedEnv(opts ServedOptions) (*ServedEnv, error) {
	rate := opts.Rate
	if rate <= 0 {
		rate = 60
	}
	if opts.LeaseTTL < 0 {
		return nil, fmt.Errorf("sim: negative lease TTL %g", float64(opts.LeaseTTL))
	}
	if opts.Recover && opts.WALDir == "" {
		return nil, fmt.Errorf("sim: Recover needs a WAL directory to replay")
	}
	cfg := DefaultConfig(AlgBasic, rate, opts.Seed)
	cfg.UseRuntime = true
	cfg.Obs = opts.Registry
	clock := opts.Clock
	if clock == nil {
		clock = proxy.NewWallClock(1)
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
	deploy := proxy.Options{LeaseTTL: opts.LeaseTTL}
	if opts.WALDir != "" {
		if deploy.WAL, err = wal.Open(wal.Options{Dir: opts.WALDir}); err != nil {
			return nil, err
		}
	}
	rt, err := env.buildRuntime(cfg, clock, deploy)
	if err != nil {
		return nil, err
	}
	if opts.Recover {
		// Replay the surviving WAL into the freshly deployed books before
		// the runtime starts serving, so a restarted deployment resumes
		// with its pre-crash reservations intact.
		if err := rt.Recover(); err != nil {
			rt.CloseWAL()
			return nil, err
		}
	}
	rt.Start()
	var ctrl *adapt.Controller
	if opts.Adapt != nil {
		locals := env.pool.LocalBrokers()
		brokers := make([]broker.Broker, 0, len(locals))
		for _, b := range locals {
			brokers = append(brokers, b)
		}
		ctrl = adapt.New(rt, *opts.Adapt, brokers)
		ctrl.Instrument(env.ins.adapt)
	}
	return &ServedEnv{
		rng:     rng,
		cfg:     cfg,
		env:     env,
		rt:      rt,
		planner: planner,
		clock:   clock,
		ctrl:    ctrl,
	}, nil
}

// Controller returns the adaptation controller, nil unless
// ServedOptions.Adapt armed one. The serving front end ticks it on
// wall-clock time.
func (se *ServedEnv) Controller() *adapt.Controller { return se.ctrl }

// Renegotiate moves an established session to the named end-to-end
// level through the delta-reservation path.
func (se *ServedEnv) Renegotiate(ctx context.Context, s *proxy.Session, level string) error {
	return se.rt.Renegotiate(ctx, s, level)
}

// Runtime exposes the deployed QoSProxy runtime (heartbeat sweeps,
// recovery, instrumentation).
func (se *ServedEnv) Runtime() *proxy.Runtime { return se.rt }

// Clock returns the runtime clock.
func (se *ServedEnv) Clock() proxy.Clock { return se.clock }

// SweepLeases reclaims every leased hold whose expiry has passed and
// returns how many were released. A serving deployment ticks this
// periodically (cmd/qosserved sweeps at half the lease TTL); without it
// only recovery's one-shot sweep would ever reclaim abandoned holds.
func (se *ServedEnv) SweepLeases() int {
	return se.env.pool.ExpireLeases(se.clock.Now())
}

// Close stops the runtime and closes the WAL. The WAL directory is left
// in place — that is the point: a later NewServedEnv with Recover picks
// it up.
func (se *ServedEnv) Close() error {
	se.rt.Stop()
	return se.rt.CloseWAL()
}

// SampledSession is one drawn session offer: the wire document, the
// main QoSProxy that should coordinate it, and the paper-distributed
// holding time a well-behaved client would keep it for. Service and
// Binding are the environment's own model and binding the document was
// rendered from, for callers that establish the offer in-process
// without building the document again.
type SampledSession struct {
	MainHost topo.HostID
	Duration broker.Time
	Doc      *spec.Session
	Service  *svc.Service
	Binding  svc.Binding
}

// SampleSession draws one paper-shaped session (domain, service,
// fat/long class) and renders it as a spec document with the current
// availability snapshot. The snapshot is advisory — Establish collects
// live availability over the fabric regardless.
func (se *ServedEnv) SampleSession() (*SampledSession, error) {
	se.mu.Lock()
	sh := se.env.drawSession(se.cfg, se.rng)
	se.mu.Unlock()
	service := se.env.services[sh.service-1][sh.variant]
	binding, resources := sessionResources(sh)
	snap, err := se.env.pool.Snapshot(se.clock.Now(), resources)
	if err != nil {
		return nil, err
	}
	doc, err := spec.FromModel(service, binding, snap)
	se.env.pool.RecycleSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return &SampledSession{
		MainHost: topo.ServerHost(sh.service),
		Duration: sh.duration,
		Doc:      doc,
		Service:  service,
		Binding:  binding,
	}, nil
}

// Establish validates the document and runs the three-phase protocol
// from mainHost. The document's availability snapshot is ignored (live
// collection); its service model and binding are what matter.
func (se *ServedEnv) Establish(ctx context.Context, mainHost topo.HostID, doc *spec.Session) (*proxy.Session, error) {
	service, binding, _, err := doc.Build()
	if err != nil {
		return nil, fmt.Errorf("sim: served establish: %w", err)
	}
	return se.EstablishModel(ctx, mainHost, service, binding)
}

// EstablishModel runs the three-phase protocol from mainHost for a
// built, validated service model and binding. The runtime's compiled
// templates are keyed on the service pointer, so a caller that admits
// many sessions of one model should pass the same *svc.Service each
// time (spec.Catalog interns models for exactly that).
func (se *ServedEnv) EstablishModel(ctx context.Context, mainHost topo.HostID, service *svc.Service, binding svc.Binding) (*proxy.Session, error) {
	return se.rt.EstablishContext(ctx, mainHost, proxy.SessionSpec{
		Service: service,
		Binding: binding,
		Planner: se.planner,
	})
}
