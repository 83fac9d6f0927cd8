package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"qosres/internal/adapt"
	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/fault"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/topo"
	"qosres/internal/trace"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// This file is the concurrent harness. The discrete-event simulator is
// single-threaded by construction, so it can never exercise the
// snapshot→reserve race; RunChaos instead drives one proxy.Runtime from
// many goroutine "clients", each establishing, heartbeating and
// releasing sessions drawn from the figure-9 workload, while a driver
// paces a seeded fault-injection walk against the environment. Every
// injected fault triggers the runtime's session-repair protocol, and a
// lease sweep reclaims whatever silent (orphaned) sessions strand. The
// run checks:
//
//  1. no broker's reserved total ever exceeds its ORIGINAL capacity —
//     capacity shrinks may push availability negative (holds are never
//     evicted), but admission must never commit into the overhang;
//  2. after the clients drain, faults recover, and the final lease sweep
//     runs, every broker is back to its exact original shape with zero
//     live holds — failed admissions and orphaned sessions included;
//  3. every session ends accounted for: released by its client, repaired
//     or degraded in place, terminated by a failed repair, or reclaimed
//     by lease expiry. No zombie stays registered with the runtime.
//
// A fault-free stress run is the degenerate configuration
// FaultsConfig{Steps: 1, StepEvery: 1}: no walk probabilities, no
// leases, no orphans; once the driver's single step is done the clients
// run free.

// StressConfig parameterizes one RunChaos call. The zero value is not
// valid; start from DefaultStressConfig.
type StressConfig struct {
	// Seed drives capacity draws and every client's session stream.
	Seed int64
	// Sessions is the number of concurrent client goroutines.
	Sessions int
	// Iterations is the number of Establish attempts per client.
	Iterations int
	// Config is the underlying run configuration (algorithm, workload
	// shape, capacities, MaxAdmitRetries, Obs registry, Faults).
	// UseRuntime is implied.
	Config Config
}

// DefaultStressConfig returns a configuration that contends hard: the
// figure-9 environment is drawn with capacities well below the paper's
// 1000..4000 so concurrent sessions constantly race for the same
// brokers and commit-time refusals actually occur.
func DefaultStressConfig(seed int64) StressConfig {
	cfg := DefaultConfig(AlgBasic, 120, seed)
	cfg.UseRuntime = true
	cfg.CapacityMin = 150
	cfg.CapacityMax = 300
	return StressConfig{
		Seed:       seed,
		Sessions:   32,
		Iterations: 8,
		Config:     cfg,
	}
}

// overcommitTolerance absorbs the per-reservation availEpsilon slack of
// many concurrent holds; a genuine over-commit overshoots by a session's
// whole requirement, orders of magnitude larger.
const overcommitTolerance = 1e-6

// FaultsConfig parameterizes chaos mode (Config.Faults, simqos -chaos).
type FaultsConfig struct {
	// Seed drives the fault walk; 0 derives it from the run seed.
	Seed int64
	// Steps bounds the number of injection steps. The driver paces itself
	// against client progress, so a run whose clients finish early stops
	// injecting early too.
	Steps int
	// StepEvery is the simulated-clock advance per injection step (TUs).
	StepEvery broker.Time
	// LeaseTTL leases every session's holds: they expire this many TUs
	// after the last heartbeat and are reclaimed by the harness's sweep.
	// 0 disables leasing (then OrphanRate must be 0 — an orphan's holds
	// could never be reclaimed).
	LeaseTTL broker.Time
	// OrphanRate is the probability that a client abandons an established
	// session without releasing it, simulating a crashed session owner;
	// only the lease sweep can reclaim its capacity.
	OrphanRate float64
	// Random parameterizes the seeded fault walk (including the
	// partition/heal probabilities of transport chaos).
	Random fault.RandomConfig
	// Transport, when non-nil, rebases the run on an unreliable transport
	// fabric: protocol messages are delayed, lost, and duplicated per its
	// probabilities, routes can be partitioned (Random.PartitionProb), and
	// every Establish and repair sweep is bounded by Deadline. Requires
	// LeaseTTL > 0 when any unreliability is configured — a lost abort or
	// commit can strand prepared holds that only the sweep reclaims.
	Transport *TransportConfig
	// WALDir write-ahead-logs every 2PC transition into segment files
	// under this directory, arming crash/restart injection
	// (Random.CrashProb). Empty with CrashProb > 0 makes RunChaos journal
	// into a per-run temporary directory, removed when the run returns.
	WALDir string
	// Adapt, when non-nil, runs the mid-session adaptation controller
	// (package adapt) concurrently with the faults: one controller tick
	// per injection step, brownout downgrades above the high watermark,
	// upgrades below the low one. The harness then also checks the two
	// adaptation invariants — every live session's booked holds match its
	// recorded level exactly, and no downgrade lands below the policy's
	// rank floor.
	Adapt *adapt.Policy
}

// TransportConfig parameterizes unreliable-messaging chaos
// (FaultsConfig.Transport, simqos -partition/-loss).
type TransportConfig struct {
	// Seed drives the loss/duplication rolls; 0 derives it from the run
	// seed.
	Seed int64
	// Loss and Dup are the per-delivery probabilities, on every route,
	// that a protocol message (or its reply) is dropped or delivered
	// twice.
	Loss, Dup float64
	// Latency is the one-way wall-clock delivery delay of every message.
	Latency time.Duration
	// Deadline bounds every Establish call and every fault-triggered
	// repair sweep; 0 uses defaultChaosDeadline. The harness asserts that
	// no call overruns it (plus scheduling grace) — a lost message must
	// degrade or abort the protocol, never hang it.
	Deadline time.Duration
	// MaxInFlight bounds concurrent admissions at the runtime; calls
	// beyond it are shed with transport.ErrOverloaded. 0 means unbounded.
	MaxInFlight int
	// BreakerThreshold arms a per-route circuit breaker opening after
	// this many consecutive delivery failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the breaker's open → half-open cooldown.
	BreakerCooldown time.Duration
}

// defaultChaosDeadline bounds Establish and repair sweeps when
// TransportConfig.Deadline is zero.
const defaultChaosDeadline = 250 * time.Millisecond

// DefaultTransportConfig is the acceptance-grade unreliable transport:
// 10% loss, 5% duplication, a small delivery delay, a breaker, and a
// bounded admission gate.
func DefaultTransportConfig() *TransportConfig {
	return &TransportConfig{
		Loss:             0.10,
		Dup:              0.05,
		Latency:          time.Millisecond,
		Deadline:         defaultChaosDeadline,
		MaxInFlight:      0,
		BreakerThreshold: 5,
		BreakerCooldown:  100 * time.Millisecond,
	}
}

// DefaultFaultsConfig is a moderately hostile chaos mode: a fault most
// steps, a couple of concurrent outages at most, one session in ten
// orphaned, leases an order of magnitude longer than a step.
func DefaultFaultsConfig() *FaultsConfig {
	return &FaultsConfig{
		Steps:      60,
		StepEvery:  1,
		LeaseTTL:   10,
		OrphanRate: 0.1,
		Random:     fault.DefaultRandomConfig(),
	}
}

// validate checks the chaos parameters (called from Config.Validate).
func (fc *FaultsConfig) validate() error {
	if fc.Steps < 1 {
		return fmt.Errorf("sim: chaos needs at least one injection step, got %d", fc.Steps)
	}
	if fc.StepEvery <= 0 {
		return fmt.Errorf("sim: non-positive chaos step interval %g", float64(fc.StepEvery))
	}
	if fc.LeaseTTL < 0 {
		return fmt.Errorf("sim: negative lease TTL %g", float64(fc.LeaseTTL))
	}
	if fc.OrphanRate < 0 || fc.OrphanRate > 1 {
		return fmt.Errorf("sim: orphan rate %g out of [0,1]", fc.OrphanRate)
	}
	if fc.OrphanRate > 0 && fc.LeaseTTL <= 0 {
		return fmt.Errorf("sim: orphaned sessions need a lease TTL to be reclaimed")
	}
	if tc := fc.Transport; tc != nil {
		if tc.Loss < 0 || tc.Loss > 1 {
			return fmt.Errorf("sim: transport loss %g out of [0,1]", tc.Loss)
		}
		if tc.Dup < 0 || tc.Dup > 1 {
			return fmt.Errorf("sim: transport duplication %g out of [0,1]", tc.Dup)
		}
		if tc.Latency < 0 {
			return fmt.Errorf("sim: negative transport latency %v", tc.Latency)
		}
		if tc.Deadline < 0 {
			return fmt.Errorf("sim: negative transport deadline %v", tc.Deadline)
		}
		if tc.MaxInFlight < 0 {
			return fmt.Errorf("sim: negative in-flight bound %d", tc.MaxInFlight)
		}
		if tc.BreakerThreshold < 0 || tc.BreakerCooldown < 0 {
			return fmt.Errorf("sim: invalid breaker config %d/%v", tc.BreakerThreshold, tc.BreakerCooldown)
		}
		lossy := tc.Loss > 0 || tc.Dup > 0 || fc.Random.PartitionProb > 0
		if lossy && fc.LeaseTTL <= 0 {
			return fmt.Errorf("sim: lossy transport needs a lease TTL — a lost abort or commit strands prepared holds that only the sweep can reclaim")
		}
	} else if fc.Random.PartitionProb > 0 || fc.Random.HealProb > 0 {
		return fmt.Errorf("sim: partition probabilities need transport chaos (FaultsConfig.Transport)")
	}
	if fc.Random.CrashProb < 0 || fc.Random.CrashProb > 1 {
		return fmt.Errorf("sim: crash probability %g out of [0,1]", fc.Random.CrashProb)
	}
	if fc.Random.CrashProb > 0 && fc.LeaseTTL <= 0 {
		return fmt.Errorf("sim: crash/restart injection needs a lease TTL — a release or abort that races the amnesia window strands holds that only the sweep can reclaim")
	}
	if ap := fc.Adapt; ap != nil {
		if ap.HighWater < 0 || ap.HighWater > 1 || ap.LowWater < 0 || ap.LowWater > 1 {
			return fmt.Errorf("sim: adaptation watermarks %g/%g out of [0,1]", ap.LowWater, ap.HighWater)
		}
		if ap.Cooldown < 0 {
			return fmt.Errorf("sim: negative adaptation cooldown %g", float64(ap.Cooldown))
		}
	}
	if fc.Random.SurgeProb < 0 || fc.Random.SurgeProb > 1 {
		return fmt.Errorf("sim: surge probability %g out of [0,1]", fc.Random.SurgeProb)
	}
	return nil
}

// ChaosResult summarizes one RunChaos call. Established + PlanInfeasible
// + AdmitRefused equals Sessions × Iterations; Orphaned and Lost are
// subsets of Established.
type ChaosResult struct {
	// Established counts sessions that committed their reservations,
	// PlanInfeasible those whose planning found no feasible path against
	// their snapshot, AdmitRefused those refused at commit time after
	// exhausting the retry budget.
	Established    int
	PlanInfeasible int
	AdmitRefused   int
	// Orphaned counts established sessions abandoned without release;
	// their holds were reclaimed by the lease sweep.
	Orphaned int
	// Lost counts held sessions whose clients learned via heartbeat that
	// a failed repair or a lease sweep had terminated them.
	Lost int
	// Injected counts applied fault events (all kinds, recoveries
	// included).
	Injected int
	// Affected, Repaired, Degraded, RepairFailed tally the repair sweeps
	// the injected faults triggered (Repaired + Degraded + RepairFailed
	// == Affected).
	Affected, Repaired, Degraded, RepairFailed int
	// LeasesExpired counts the holds reclaimed by the lease sweeps,
	// including the final drain sweep.
	LeasesExpired int
	// Shed counts admission attempts refused immediately by the overload
	// gate (transport.ErrOverloaded); TimedOut counts attempts abandoned
	// at their deadline or failed fast by an open circuit breaker. Both
	// are transport-chaos outcomes and join the attempt partition.
	Shed     int
	TimedOut int
	// Abandoned counts sessions repair sweeps skipped because the sweep's
	// deadline expired first.
	Abandoned int
	// Crashed counts applied crash/restart cycles (Random.CrashProb):
	// each one killed a host's proxy, wiped its in-memory book, and
	// recovered it from the write-ahead log. CrashAborted counts
	// admission attempts those crashes cut mid-protocol — the 2PC
	// aborted cleanly (nothing half-committed) and the attempt joins the
	// partition alongside TimedOut.
	Crashed      int
	CrashAborted int
	// Upgrades and Downgrades tally the successful mid-session
	// renegotiations the adaptation controller drove (FaultsConfig.Adapt);
	// AdaptHeld counts controller ticks absorbed by the hysteresis band,
	// FlapsSuppressed the renegotiations the cooldown or the tick budget
	// refused.
	Upgrades, Downgrades       int
	AdaptHeld, FlapsSuppressed int
	// QoSSeconds is the run's delivered QoS-seconds: the integral of
	// end-to-end rank over each session's held time, the headline metric
	// adaptation trades in. Accrued whether or not a controller runs.
	QoSSeconds float64
}

// String renders the result as a summary: two lines, plus a transport
// line when unreliable messaging produced any outcome of its own.
func (r *ChaosResult) String() string {
	s := fmt.Sprintf("established %d, plan-infeasible %d, admit-refused %d (orphaned %d, lost %d)\n"+
		"faults injected %d; sessions affected %d: repaired %d, degraded %d, failed %d; leases expired %d",
		r.Established, r.PlanInfeasible, r.AdmitRefused, r.Orphaned, r.Lost,
		r.Injected, r.Affected, r.Repaired, r.Degraded, r.RepairFailed, r.LeasesExpired)
	if r.Shed+r.TimedOut+r.Abandoned > 0 {
		s += fmt.Sprintf("\ntransport: shed %d, timed out %d, repairs abandoned %d",
			r.Shed, r.TimedOut, r.Abandoned)
	}
	if r.Crashed+r.CrashAborted > 0 {
		s += fmt.Sprintf("\ncrash/restart cycles %d, admissions crash-aborted %d",
			r.Crashed, r.CrashAborted)
	}
	if r.Upgrades+r.Downgrades+r.AdaptHeld+r.FlapsSuppressed > 0 {
		s += fmt.Sprintf("\nadaptation: upgraded %d, downgraded %d, held %d tick(s), flaps suppressed %d",
			r.Upgrades, r.Downgrades, r.AdaptHeld, r.FlapsSuppressed)
	}
	s += fmt.Sprintf("\ndelivered QoS-seconds %.1f", r.QoSSeconds)
	return s
}

// RunChaos drives Sessions concurrent clients through the proxy
// runtime's three-phase protocol under the fault walk of
// sc.Config.Faults (nil uses DefaultFaultsConfig) and verifies the
// invariants above; UseRuntime is implied. Any invariant violation, or
// any Establish failure the configuration cannot explain, is returned
// as an error. The run's write-ahead log, if any, is closed before
// RunChaos returns; a failed close fails the run.
func RunChaos(sc StressConfig) (res *ChaosResult, err error) {
	cfg := sc.Config
	cfg.UseRuntime = true
	if cfg.Faults == nil {
		cfg.Faults = DefaultFaultsConfig()
	}
	fc := cfg.Faults
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sc.Sessions < 1 || sc.Iterations < 1 {
		return nil, fmt.Errorf("sim: chaos needs at least one session and one iteration, got %d×%d",
			sc.Sessions, sc.Iterations)
	}
	crashOn := fc.Random.CrashProb > 0
	walDir := fc.WALDir
	if crashOn && walDir == "" {
		// Crash cycles replay from the WAL; without a caller-provided
		// directory the journal lives (and dies) with the run.
		dir, err := os.MkdirTemp("", "qosres-chaos-wal-")
		if err != nil {
			return nil, fmt.Errorf("sim: chaos WAL dir: %w", err)
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}

	rng := rand.New(rand.NewSource(sc.Seed))
	env, err := buildEnvironment(cfg, rng)
	if err != nil {
		return nil, err
	}
	planner, err := makePlanner(cfg, rng)
	if err != nil {
		return nil, err
	}
	// Chaos always traces at sample 1.0: the trace-completeness invariant
	// below needs every admission's and every repair sweep's span tree.
	// The check sees each tree as it leaves the recorder; when the run
	// also writes a JSONL trace (cfg.Tracer), the tree goes on into it
	// for offline critical-path analysis (cmd/qostrace).
	trees := &treeCheck{}
	if cfg.Tracer != nil {
		trees.out = trace.Spans(cfg.Tracer)
	}
	env.tracerec = obs.NewTraceRecorder(obs.TraceOptions{
		Sample: 1, Seed: sc.Seed + 6700417, Sink: trees})
	// Lease every session's holds so a silent (orphaned) session can
	// never strand capacity.
	opts := proxy.Options{LeaseTTL: fc.LeaseTTL}
	if walDir != "" {
		// Durable chaos: journal every 2PC transition so crash/restart
		// injection can replay the books.
		log, err := wal.Open(wal.Options{Dir: walDir})
		if err != nil {
			return nil, err
		}
		opts.WAL = log
	}
	if tc := fc.Transport; tc != nil {
		// Unreliable-messaging mode: replace the default perfect fabric
		// with one that delays, loses, and duplicates per the config,
		// optionally guarded by per-route circuit breakers, and bound the
		// number of concurrently admitted sessions.
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
	clock := &proxy.ManualClock{}
	rt, err := env.buildRuntime(cfg, clock, opts)
	if err != nil {
		return nil, err
	}
	rt.Start()
	defer func() {
		// Stop before closing the log: a two-phase handler journals until
		// Stop has waited it out. The log's open segment must be closed
		// before the run's temporary WAL directory is removed.
		rt.Stop()
		if cerr := rt.CloseWAL(); cerr != nil && err == nil {
			res, err = nil, fmt.Errorf("sim: chaos WAL close: %w", cerr)
		}
	}()

	var (
		mu       sync.Mutex
		result   ChaosResult
		orphans  []*proxy.Session
		failures []string
	)
	fail := func(format string, args ...interface{}) {
		mu.Lock()
		if len(failures) < 8 { // keep the report readable
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	locals := env.pool.LocalBrokers()

	// Transport chaos: with fc.Transport set, the runtime runs the
	// protocol on an unreliable fabric; every Establish and every repair
	// sweep is then bounded by the configured deadline, and the harness
	// asserts nothing overruns it (plus generous scheduling grace — the
	// assertion catches hangs, not slow scheduling).
	transportOn := fc.Transport != nil
	deadline := defaultChaosDeadline
	if transportOn && fc.Transport.Deadline > 0 {
		deadline = fc.Transport.Deadline
	}
	const deadlineGrace = 2 * time.Second
	bound := func() (context.Context, context.CancelFunc) {
		if !transportOn {
			return context.Background(), func() {}
		}
		return context.WithTimeout(context.Background(), deadline)
	}

	// The injector drives broker failures and capacity shrinks; every
	// down/shrink event is forwarded to the runtime's repair layer, which
	// walks the live sessions holding the affected resources. Network
	// events (partition/heal/delay) invalidate no committed holds — their
	// synthetic route: resources match no reservation — so they skip the
	// sweep.
	inj := fault.New(env.pool, env.topology)
	inj.Instrument(env.ins.faults)
	inj.SetTransport(rt.Transport())
	if crashOn {
		inj.SetRestarter(rt)
	}
	inj.OnFault(func(ev fault.Event) {
		mu.Lock()
		result.Injected++
		if ev.Kind == fault.KindCrashRestart {
			result.Crashed++
		}
		mu.Unlock()
		switch ev.Kind {
		case fault.KindRecover, fault.KindCapacityRestore,
			fault.KindPartition, fault.KindHeal, fault.KindDelayRoute,
			fault.KindCrashRestart, fault.KindSurge, fault.KindSurgeEnd:
			// Crash/restart needs no repair sweep: recovery replayed the
			// book, and every committed hold it restored is intact. Surges
			// invalidate nothing either — they are external contention for
			// the adaptation controller, not the repair layer.
			return
		}
		ctx, cancel := bound()
		t0 := time.Now()
		rep := rt.RepairAffectedContext(ctx, ev.Resources)
		elapsed := time.Since(t0)
		cancel()
		if transportOn && elapsed > deadline+deadlineGrace {
			fail("repair sweep overran its deadline: %v > %v", elapsed, deadline)
		}
		mu.Lock()
		result.Affected += rep.Affected
		result.Repaired += rep.Repaired
		result.Degraded += rep.Degraded
		result.RepairFailed += rep.Failed
		result.Abandoned += rep.Abandoned
		mu.Unlock()
	})
	sweep := func(now broker.Time) {
		if fc.LeaseTTL <= 0 {
			return
		}
		if n := env.pool.ExpireLeases(now); n > 0 {
			mu.Lock()
			result.LeasesExpired += n
			mu.Unlock()
			env.ins.faults.LeasesExpired.Add(float64(n))
		}
	}

	// Mid-session adaptation (fc.Adapt): one controller tick per driver
	// step, sharing the driver's pacing so renegotiations race live
	// admissions, faults, partitions, and crash cycles exactly as they
	// would in a deployment. The counters are read back into the result,
	// so they are backed by a private registry when the run records no
	// metrics of its own.
	var ctrl *adapt.Controller
	adaptMetrics := env.ins.adapt
	if fc.Adapt != nil {
		if !env.ins.enabled() {
			adaptMetrics = obs.NewAdaptMetrics(obs.New())
		}
		brokers := make([]broker.Broker, 0, len(locals))
		for _, b := range locals {
			brokers = append(brokers, b)
		}
		ctrl = adapt.New(rt, *fc.Adapt, brokers)
		ctrl.Instrument(adaptMetrics)
	}
	// audit checks adaptation invariant 5 — every live session's booked
	// holds match its recorded level's requirement exactly — while
	// admissions, faults, and renegotiations are all in flight.
	audit := func(when string) {
		for _, msg := range rt.AuditSessions(overcommitTolerance) {
			fail("session audit (%s): %s", when, msg)
		}
	}

	// The driver paces the run: each step it advances the simulated
	// clock, takes one fault-walk step, sweeps expired leases, and then
	// releases one tick per client. The tick channel's capacity is one
	// round, so the driver cannot race ahead of the clients — faults land
	// while sessions are actually live.
	fseed := fc.Seed
	if fseed == 0 {
		fseed = sc.Seed + 104729
	}
	frng := rand.New(rand.NewSource(fseed))
	ticks := make(chan struct{}, sc.Sessions)
	stop := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		defer close(ticks)
		hosts := env.topology.Hosts()
		crashedMid := false
		for i := 0; i < fc.Steps; i++ {
			clock.Advance(fc.StepEvery)
			now := clock.Now()
			inj.RandomStep(now, frng, fc.Random)
			mu.Lock()
			cold := result.Injected == 0
			mu.Unlock()
			if i == 1 && cold && fc.Random.FailProb > 0 {
				// Guarantee a failing walk exercises the failure path even
				// when its dice stay cold: fail one deterministic resource
				// (the walk may recover it later).
				_ = inj.FailResource(now, locals[0].Resource())
			}
			if crashOn && i == 2 {
				// Guarantee an early crash/restart cycle per run whatever
				// the walk's dice do, aimed at a server host whose proxy
				// actually journals 2PC transitions, while admissions are
				// still in flight around it.
				_ = inj.CrashRestart(now, topo.ServerHost(1+i%topo.NumServers))
			}
			if crashOn && !crashedMid {
				// And one more once half the admission attempts have
				// landed, so every run replays a log with real history —
				// the clients may outpace the step counter, so this is
				// paced by their progress, not by i.
				mu.Lock()
				attempts := result.Established + result.PlanInfeasible +
					result.AdmitRefused + result.Shed + result.TimedOut + result.CrashAborted
				mu.Unlock()
				if attempts >= sc.Sessions*sc.Iterations/2 {
					crashedMid = true
					_ = inj.CrashRestart(now, topo.ServerHost(1))
				}
			}
			if transportOn && len(hosts) >= 2 {
				// Guarantee at least one full partition/heal cycle per run,
				// whatever the walk's dice do: cut one route early, heal
				// every remaining cut at the midpoint so the second half
				// also measures the healed protocol.
				if i == 1 {
					_ = inj.PartitionLink(hosts[0], hosts[1])
				}
				if i == fc.Steps/2 {
					for _, p := range inj.Partitioned() {
						_ = inj.HealLink(p[0], p[1])
					}
				}
			}
			sweep(now)
			if ctrl != nil {
				// One deadline bounds the whole tick, like a repair sweep: a
				// renegotiation stalled by lost messages must abort back to
				// the old level, never hang the driver.
				tctx, tcancel := bound()
				actions := ctrl.Tick(tctx, now)
				tcancel()
				for _, a := range actions {
					if a.Err != nil {
						// A refused renegotiation (contention, a mid-flight
						// fault) leaves the session at its old level; the
						// audit below verifies exactly that.
						continue
					}
					mu.Lock()
					if a.ToRank > a.FromRank {
						result.Upgrades++
					} else {
						result.Downgrades++
					}
					mu.Unlock()
					// Adaptation invariant 6: never below the policy floor.
					if a.ToRank < a.FromRank && a.ToRank < adapt.FloorRank {
						fail("adaptation downgraded below the rank floor: %d -> %d", a.FromRank, a.ToRank)
					}
				}
			}
			audit(fmt.Sprintf("step %d", i))
			for c := 0; c < sc.Sessions; c++ {
				select {
				case ticks <- struct{}{}:
				case <-stop:
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < sc.Sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(sc.Seed + 7919*int64(g) + 1))
			var held []*proxy.Session
			release := func(s *proxy.Session) {
				if err := s.Release(); err != nil {
					if crashOn {
						// The release raced a crash's amnesia window: the book
						// was mid-wipe or the WAL already replayed the holds
						// back. Drop the session — its restored holds are
						// leased, and with no further heartbeats the sweep
						// reclaims them.
						mu.Lock()
						result.Lost++
						mu.Unlock()
						return
					}
					fail("client %d: release: %v", g, err)
				}
			}
			// heartbeat renews the held sessions' leases; a session a
			// failed repair or a lease sweep already terminated is dropped.
			heartbeat := func() {
				live := held[:0]
				for _, s := range held {
					switch err := s.Heartbeat(); {
					case err == nil:
						live = append(live, s)
					case errors.Is(err, proxy.ErrSessionLost):
						mu.Lock()
						result.Lost++
						mu.Unlock()
					case crashOn:
						// A heartbeat that raced a restart's amnesia window is
						// indistinguishable from a lost session; treat it as
						// one and let the sweep reclaim the replayed holds.
						mu.Lock()
						result.Lost++
						mu.Unlock()
					default:
						fail("client %d: heartbeat: %v", g, err)
					}
				}
				held = live
			}
			for it := 0; it < sc.Iterations; it++ {
				<-ticks // paced by the driver (free-running once it stops)
				heartbeat()
				sh := env.drawSession(cfg, crng)
				service := env.services[sh.service-1][sh.variant]
				binding, _ := env.placement(sh)
				ctx, cancel := bound()
				t0, began := time.Now(), clock.Now()
				s, err := rt.EstablishContext(ctx, topo.ServerHost(sh.service), proxy.SessionSpec{
					Service: service, Binding: binding, Planner: planner,
				})
				elapsed := time.Since(t0)
				cancel()
				if transportOn && elapsed > deadline+deadlineGrace {
					fail("client %d: establish overran its deadline: %v > %v", g, elapsed, deadline)
				}
				switch {
				case err == nil:
					mu.Lock()
					result.Established++
					mu.Unlock()
					if crng.Float64() < fc.OrphanRate {
						// The session's owner "crashes": no release, no
						// further heartbeats. Only the lease sweep can
						// reclaim the holds.
						mu.Lock()
						result.Orphaned++
						orphans = append(orphans, s)
						mu.Unlock()
					} else {
						held = append(held, s)
						if len(held) > 2 {
							release(held[0])
							held = held[1:]
						}
					}
				case errors.Is(err, core.ErrInfeasible):
					mu.Lock()
					result.PlanInfeasible++
					mu.Unlock()
				case errors.Is(err, broker.ErrInsufficient):
					mu.Lock()
					result.AdmitRefused++
					mu.Unlock()
				case errors.Is(err, transport.ErrOverloaded):
					// The overload gate shed the attempt before any work.
					mu.Lock()
					result.Shed++
					mu.Unlock()
				case crashOn && (errors.Is(err, transport.ErrClosed) ||
					errors.Is(err, proxy.ErrAborted) ||
					errors.Is(err, proxy.ErrSessionLost)):
					// A crash/restart cut the protocol mid-flight: a
					// participant dropped off the fabric (its endpoint closed
					// under the call), recovery's presumed-abort beat the
					// coordinator's commit, or the crash wiped the committed
					// holds before the session could lease them. The
					// admission aborted cleanly.
					mu.Lock()
					result.CrashAborted++
					mu.Unlock()
				case errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, transport.ErrCircuitOpen),
					(errors.Is(err, broker.ErrUnknownReservation) ||
						errors.Is(err, proxy.ErrSessionLost)) &&
						clock.Now() >= began+fc.LeaseTTL:
					// Lost messages burned the deadline, a breaker failed the
					// route fast, or the driver's clock ran a full lease out
					// during the call and the sweep reclaimed the holds
					// before the commit (or the session's lease arming)
					// landed — either way the protocol aborted cleanly
					// instead of hanging. Holds lost any sooner, with no
					// crash to explain them, fail the run.
					mu.Lock()
					result.TimedOut++
					mu.Unlock()
				default:
					fail("client %d: establish: %v", g, err)
				}
				// Invariant 1, checked while faults are live: the reserved
				// total never exceeds the resource's ORIGINAL capacity.
				// (Available() may legitimately be negative after a shrink;
				// comparing against the pre-chaos capacity is what catches a
				// genuine over-commit.)
				for _, b := range locals {
					if r := b.Reserved(); r > env.capacities[b.Resource()]+overcommitTolerance {
						fail("client %d: broker %s over-committed: reserved %g of original %g",
							g, b.Resource(), r, env.capacities[b.Resource()])
					}
				}
			}
			heartbeat()
			for _, s := range held {
				release(s)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	driverWG.Wait()

	// End of chaos: let every delayed or duplicated delivery still inside
	// the fabric land before measuring anything — a delayed prepare can
	// legitimately create leased holds after its coordinator gave up, and
	// those holds must exist before the lease clock advances so the final
	// sweep reclaims them. Then heal the environment, let every
	// outstanding lease expire, and run the final sweep. Anything still
	// held after this is a leaked reservation.
	rt.Transport().Settle()
	inj.RecoverAll(clock.Now())
	if fc.LeaseTTL > 0 {
		clock.Advance(fc.LeaseTTL + fc.StepEvery + 1)
		sweep(clock.Now())
	}
	// Orphaned sessions' capacity was reclaimed at the brokers; their
	// owners' next heartbeat (here, simulating a crashed owner's restart)
	// must observe the loss, which also unregisters the zombie from the
	// runtime. A failed-repair termination beat some of them to it.
	for _, s := range orphans {
		if err := s.Heartbeat(); !errors.Is(err, proxy.ErrSessionLost) {
			failures = append(failures, fmt.Sprintf("orphaned session outlived its lease: heartbeat err %v", err))
		}
	}
	audit("drain")

	// The headline metric: delivered QoS-seconds, accrued per session at
	// every level change and closed out at teardown. Every terminated
	// session folded its integral into the runtime's total by now.
	result.QoSSeconds = rt.DeliveredQoSSeconds()
	if ctrl != nil {
		result.AdaptHeld = int(adaptMetrics.Held.Value())
		result.FlapsSuppressed = int(adaptMetrics.FlapsSuppressed.Value())
	}

	// Invariant 2: the environment is back to its exact original shape —
	// original capacities, full availability, zero live holds anywhere.
	for _, b := range locals {
		r := b.Resource()
		if n := b.Reservations(); n != 0 {
			failures = append(failures, fmt.Sprintf("broker %s leaked %d holds", r, n))
		}
		if c, orig := b.Capacity(), env.capacities[r]; c != orig {
			failures = append(failures, fmt.Sprintf("broker %s capacity %g after recovery, want original %g", r, c, orig))
		}
		if a, c := b.Available(), b.Capacity(); a < c-overcommitTolerance || a > c+overcommitTolerance {
			failures = append(failures, fmt.Sprintf("broker %s availability %g after drain, want capacity %g", r, a, c))
		}
	}
	// Invariant 3: every session is accounted for; the runtime's repair
	// registry holds no zombies.
	if live := rt.LiveSessions(); live != 0 {
		failures = append(failures, fmt.Sprintf("%d sessions still registered after drain", live))
	}
	if got, want := result.Established+result.PlanInfeasible+result.AdmitRefused+
		result.Shed+result.TimedOut+result.CrashAborted, sc.Sessions*sc.Iterations; got != want {
		failures = append(failures, fmt.Sprintf("outcome count %d != %d attempts", got, want))
	}
	if result.Repaired+result.Degraded+result.RepairFailed != result.Affected {
		failures = append(failures, fmt.Sprintf("repair tally %d+%d+%d != %d affected",
			result.Repaired, result.Degraded, result.RepairFailed, result.Affected))
	}
	// Invariant 4 (trace completeness): every admission attempt and every
	// repair sweep flushed a complete span tree — no orphan spans, no
	// unterminated roots, no multi-root traces — even under loss,
	// duplication, and partitions, and every established session shows up
	// as an ok establish root. Every participant span ends inside its
	// handler, which returns before Settle does.
	if open := env.tracerec.OpenTraces(); open > 0 {
		failures = append(failures, fmt.Sprintf("%d trace(s) still open after drain", open))
	}
	// A completed tree leaves the open table before its spans reach the
	// sink; wait out in-flight exports so the caller can flush or close
	// its tracer without tearing the last tree (torn JSONL tails fail
	// the qostrace completeness gate).
	env.tracerec.DrainExports()
	if trees.broken > 0 {
		failures = append(failures, fmt.Sprintf(
			"%d incomplete trace tree(s): orphan spans, no root, or several", trees.broken))
	}
	if trees.okEstablish != result.Established {
		failures = append(failures, fmt.Sprintf("%d ok establish trace(s) != %d established sessions",
			trees.okEstablish, result.Established))
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("sim: chaos invariants violated: %v", failures)
	}
	return &result, nil
}

// treeCheck is the chaos run's trace sink: it checks each finished span
// tree as it leaves the recorder — exactly one root, every parent
// inside the tree — counts ok establish roots, and passes the tree on
// to out, when set. Safe for concurrent use.
type treeCheck struct {
	out                 obs.TraceSink
	mu                  sync.Mutex
	broken, okEstablish int
}

func (c *treeCheck) ExportTrace(spans []obs.SpanRecord) {
	in := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		in[sp.Span] = true
	}
	c.mu.Lock()
	roots, orphans := 0, 0
	for _, sp := range spans {
		if sp.Parent != 0 && !in[sp.Parent] {
			orphans++
		} else if sp.Parent == 0 {
			roots++
			if sp.Name == obs.StageEstablish && sp.Status == obs.StatusOK {
				c.okEstablish++
			}
		}
	}
	if roots != 1 || orphans > 0 {
		c.broken++
	}
	c.mu.Unlock()
	if c.out != nil {
		c.out.ExportTrace(spans)
	}
}
