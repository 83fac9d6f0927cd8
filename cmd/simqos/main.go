// Command simqos runs one simulation of the paper's reservation-enabled
// environment and prints the key metrics: overall reservation success
// rate, average end-to-end QoS level, the per-class breakdown, the
// selected-path histograms, and the planner stage-latency percentiles.
//
// Usage:
//
//	simqos -alg basic -rate 100 -seed 1 [-duration 10800] [-stale 0]
//	       [-scale 4] [-diversity 0]
//	       [-metrics :9090] [-hold] [-trace run.jsonl] [-trace-sample 0.01]
//	       [-chaos [-loss 0.1] [-dup 0.05] [-latency 1ms] [-partition 0.1]
//	        [-deadline 250ms] [-max-inflight 0] [-crash 0.2]]
//
// With -trace-sample, sessions are head-sampled into causal distributed
// trace trees (errored admissions always rescued) exported to the
// -trace JSONL as span_end/span_event lines; reconstruct and analyze
// them with qostrace. Chaos runs always trace at sample 1.0.
//
// With -chaos plus any transport flag, the chaos harness rebases the
// reservation protocol on an unreliable message fabric (loss,
// duplication, delivery delay, fault-walk partitions), bounds every
// establish call and repair sweep by -deadline, and ends the run with a
// transport summary table.
//
// With -chaos -crash P, each fault-walk step additionally crash-restarts
// one host's QoSProxy with probability P: the in-memory proxy is
// dropped, its reservation book is recovered from a per-run write-ahead
// log, and the run's invariants (no over-commit, exact drain, zero
// zombies) are asserted across the restarts.
//
// With -metrics the process serves a live exposition endpoint while the
// simulation runs (and, with -hold, after it finishes):
//
//	/metrics        Prometheus text format 0.0.4
//	/snapshot       the same registry as indented JSON
//	/debug/pprof/   the standard net/http/pprof handlers
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"

	"qosres/internal/adapt"
	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/sim"
	"qosres/internal/stats"
	"qosres/internal/trace"
)

func main() {
	var (
		alg        = flag.String("alg", "basic", "algorithm: basic, tradeoff, or random")
		rate       = flag.Float64("rate", 100, "average session generation rate (sessions per 60 TUs)")
		seed       = flag.Int64("seed", 1, "random seed")
		duration   = flag.Float64("duration", 10800, "simulated time units")
		stale      = flag.Float64("stale", 0, "max availability observation age E (TUs)")
		scale      = flag.Float64("scale", sim.DefaultBaseScale, "base requirement scale")
		diversity  = flag.Float64("diversity", 0, "requirement diversity compression ratio (0 = off, paper fig 13 uses 3)")
		paths      = flag.Bool("paths", false, "print selected-path histograms")
		contention = flag.String("contention", "ratio", "contention index: ratio, headroom, or log")
		useRuntime = flag.Bool("runtime", false, "route sessions through the QoSProxy runtime architecture")
		admitRetry = flag.Int("admit-retries", 3, "with -runtime: max replanning retries after a commit-time refusal")
		timeline   = flag.Float64("timeline", 0, "print a success-rate timeline with this window width (TUs)")
		metrics    = flag.String("metrics", "", "serve /metrics, /snapshot and /debug/pprof on this address (e.g. :9090)")
		hold       = flag.Bool("hold", false, "with -metrics: keep serving after the run until interrupted")
		traceOut   = flag.String("trace", "", "write the event trace as JSON lines to this file (- for stdout)")
		traceSampl = flag.Float64("trace-sample", 0, "head-sampling probability of distributed trace trees (errored admissions always rescued); retained trees export to -trace as span_end/span_event lines")
		chaos      = flag.Bool("chaos", false, "run the concurrent chaos harness (fault injection, session repair, reservation leases) instead of the deterministic simulation")
		loss       = flag.Float64("loss", 0, "with -chaos: per-delivery probability that a protocol message (or reply) is lost in transit")
		dup        = flag.Float64("dup", 0, "with -chaos: per-delivery probability that a protocol message (or reply) is delivered twice")
		netLatency = flag.Duration("latency", 0, "with -chaos: one-way wall-clock delivery delay of every protocol message")
		partition  = flag.Float64("partition", 0, "with -chaos: per-step probability the fault walk cuts the route between one more host pair (healed by the walk and at the run midpoint)")
		deadline   = flag.Duration("deadline", 0, "with -chaos transport: bound on every establish call and repair sweep (default 250ms when transport chaos is on)")
		maxInFlt   = flag.Int("max-inflight", 0, "with -chaos: bound on concurrently admitted sessions; beyond it calls are shed with ErrOverloaded (0 = unbounded)")
		crashP     = flag.Float64("crash", 0, "with -chaos: per-step probability of crash-restarting one host's QoSProxy, recovered from a per-run write-ahead log")
		surgeP     = flag.Float64("surge", 0, "with -chaos: per-step probability of a surge-load action (external background demand — brownout pressure for -adapt)")
		adaptOn    = flag.Bool("adapt", false, "with -chaos: run the mid-session adaptation controller (brownout/upgrade renegotiations) concurrently with the faults")
		adaptHigh  = flag.Float64("adapt-high", 0.85, "with -adapt: utilization at or above which brownout downgrades run")
		adaptLow   = flag.Float64("adapt-low", 0.55, "with -adapt: utilization below which upgrades run")
	)
	flag.Parse()

	cfg := sim.DefaultConfig(sim.Algorithm(*alg), *rate, *seed)
	cfg.Duration = broker.Time(*duration)
	cfg.StaleE = broker.Time(*stale)
	cfg.Workload.BaseScale = *scale
	cfg.Workload.DiversityRatio = *diversity
	cfg.Contention = *contention
	cfg.UseRuntime = *useRuntime
	cfg.MaxAdmitRetries = *admitRetry
	cfg.TimelineWindow = *timeline
	cfg.TraceSample = *traceSampl

	reg := obs.New()
	cfg.Obs = reg

	if *traceOut != "" {
		var w *os.File
		if *traceOut == "-" {
			w = os.Stdout
		} else {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		sink := trace.NewJSONL(w)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "simqos: trace:", err)
			}
		}()
		cfg.Tracer = sink
	}

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(err)
		}
		srv := &http.Server{Handler: obs.NewMux(reg)}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "simqos: serving /metrics, /snapshot and /debug/pprof on %s\n", ln.Addr())
	}

	if *chaos {
		// The chaos harness replaces the deterministic run: concurrent
		// clients churn sessions while a seeded fault walk fails and
		// shrinks resources, the runtime repairs affected sessions, and
		// lease sweeps reclaim what orphaned sessions strand. The harness
		// verifies the over-commit, leak, and drain invariants itself.
		sc := sim.DefaultStressConfig(*seed)
		sc.Config.Algorithm = sim.Algorithm(*alg)
		sc.Config.MaxAdmitRetries = *admitRetry
		sc.Config.Obs = reg
		// Chaos always traces at sample 1.0 (the harness asserts trace
		// completeness); with -trace the span trees land in the JSONL for
		// qostrace's critical-path analysis.
		sc.Config.Tracer = cfg.Tracer
		sc.Config.TraceSample = cfg.TraceSample
		fc := sim.DefaultFaultsConfig()
		if *loss > 0 || *dup > 0 || *partition > 0 || *netLatency > 0 ||
			*deadline > 0 || *maxInFlt > 0 {
			// Unreliable-messaging mode: rebase the protocol on a fabric
			// that loses/duplicates/delays messages and can be partitioned
			// by the fault walk; every establish and repair sweep is
			// deadline-bounded.
			tc := sim.DefaultTransportConfig()
			tc.Loss = *loss
			tc.Dup = *dup
			tc.Latency = *netLatency
			tc.Deadline = *deadline
			tc.MaxInFlight = *maxInFlt
			fc.Transport = tc
			fc.Random.PartitionProb = *partition
			fc.Random.HealProb = 1.5 * *partition
			fc.Random.MaxPartitions = 1
		}
		// Crash cycles: the harness journals into a per-run temporary WAL
		// directory (FaultsConfig.WALDir stays empty here) and restarts
		// hosts per the walk.
		fc.Random.CrashProb = *crashP
		fc.Random.SurgeProb = *surgeP
		if *adaptOn {
			// Mid-session adaptation: the controller ticks once per
			// injection step; a cooldown a few steps long keeps a session
			// from renegotiating on consecutive ticks.
			p := adapt.DefaultPolicy()
			p.HighWater = *adaptHigh
			p.LowWater = *adaptLow
			p.Cooldown = 3 * fc.StepEvery
			fc.Adapt = &p
		}
		sc.Config.Faults = fc
		cres, err := sim.RunChaos(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("chaos: algorithm=%s seed=%d clients=%d iterations=%d\n",
			sc.Config.Algorithm, sc.Seed, sc.Sessions, sc.Iterations)
		if tc := fc.Transport; tc != nil {
			fmt.Printf("transport: loss=%g dup=%g latency=%v partition=%g deadline=%v max-inflight=%d\n",
				tc.Loss, tc.Dup, tc.Latency, *partition, tc.Deadline, tc.MaxInFlight)
		}
		if *crashP > 0 {
			fmt.Printf("crash: prob=%g (per-run WAL, recovery on every restart)\n", *crashP)
		}
		if ap := fc.Adapt; ap != nil {
			fmt.Printf("adapt: high=%g low=%g cooldown=%g budget=%d surge=%g\n",
				ap.HighWater, ap.LowWater, float64(ap.Cooldown), adapt.MaxActionsPerTick, *surgeP)
		}
		fmt.Println(cres)
		printAdmission(reg)
		printFaults(reg)
		printTransport(reg)
		if *metrics != "" && *hold {
			holdMetrics()
		}
		return
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	m := res.Metrics
	fmt.Printf("algorithm=%s rate=%g/60TU duration=%gTU seed=%d staleE=%g\n",
		cfg.Algorithm, cfg.Rate, float64(cfg.Duration), cfg.Seed, float64(cfg.StaleE))
	fmt.Println(m.Summary())
	fmt.Println()

	tbl := &stats.Table{Header: []string{"class", "sessions", "success", "avg QoS"}}
	for _, c := range stats.Classes() {
		cnt := m.Class(c)
		tbl.AddRow(c.String(),
			fmt.Sprintf("%d", cnt.Attempts),
			fmt.Sprintf("%.1f%%", 100*cnt.SuccessRate()),
			fmt.Sprintf("%.2f", cnt.AvgQoS()))
	}
	fmt.Print(tbl.String())

	fmt.Printf("\nbottleneck resources observed: %d of %d\n",
		len(m.BottleneckCounts), len(res.Capacities))

	printStageLatencies(reg)
	printAdmission(reg)
	printTemplateCache(reg)
	printFaults(reg)
	printUtilization(reg)

	if m.Timeline != nil {
		fmt.Printf("\nsuccess-rate timeline (window %g TUs):\n%s", *timeline, m.Timeline.Table())
	}

	if *paths {
		for fam, h := range m.ByFamily {
			fmt.Printf("\nselected paths (%s, %d plans):\n", fam, h.Total)
			for _, p := range h.Paths() {
				fmt.Printf("  %-24s %6.1f%%\n", p, h.Percent(p))
			}
		}
	}

	if *metrics != "" && *hold {
		holdMetrics()
	}
}

// holdMetrics keeps the process (and its /metrics endpoint) alive until
// interrupted.
func holdMetrics() {
	fmt.Fprintln(os.Stderr, "simqos: run finished; holding metrics endpoint open (interrupt to exit)")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// printStageLatencies renders the planner stage-latency histograms as a
// percentile table in microseconds of wall-clock time per session.
func printStageLatencies(reg *obs.Registry) {
	st := obs.NewPlanStages(reg)
	rows := []struct {
		name string
		h    *obs.Histogram
	}{
		{obs.StageSnapshot, st.Snapshot},
		{obs.StageBuild, st.Build},
		{obs.StagePlan, st.Plan},
		{obs.StageReserve, st.Reserve},
		{obs.StageEstablish, st.Establish},
	}
	tbl := &stats.Table{Header: []string{"stage", "count", "p50 µs", "p90 µs", "p99 µs"}}
	for _, r := range rows {
		if r.h.Count() == 0 {
			continue
		}
		tbl.AddRow(r.name,
			fmt.Sprintf("%d", r.h.Count()),
			fmt.Sprintf("%.1f", 1e6*r.h.Quantile(0.5)),
			fmt.Sprintf("%.1f", 1e6*r.h.Quantile(0.9)),
			fmt.Sprintf("%.1f", 1e6*r.h.Quantile(0.99)))
	}
	fmt.Printf("\nplanner stage latency:\n%s", tbl)
}

// printAdmission summarizes the admission-path counters: commit-time
// refusals of stale-snapshot plans, the replanning retries they caused,
// and rolled-back reservation attempts. Printed only when at least one
// counter moved (single-threaded accurate-observation runs never roll
// back, so the table would be all zeroes).
func printAdmission(reg *obs.Registry) {
	value := func(name string) float64 {
		var v float64
		for _, c := range reg.Snapshot().Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		return v
	}
	rows := []struct {
		label string
		value float64
	}{
		{"stale-snapshot rejections", value(obs.MetricAdmitStaleRejects)},
		{"admission retries", value(obs.MetricAdmitRetries)},
		{"reservation rollbacks", value(obs.MetricRollbacks)},
	}
	any := false
	for _, r := range rows {
		if r.value > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	tbl := &stats.Table{Header: []string{"admission event", "count"}}
	for _, r := range rows {
		tbl.AddRow(r.label, fmt.Sprintf("%.0f", r.value))
	}
	fmt.Printf("\nadmission (validate-at-commit):\n%s", tbl)
}

// printTemplateCache summarizes QRG construction: how many graphs were
// instantiated from a cached template versus compiled fresh, and how
// many templates stayed resident. Silent when no graph was built.
func printTemplateCache(reg *obs.Registry) {
	snap := reg.Snapshot()
	value := func(name string) float64 {
		var v float64
		for _, c := range snap.Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		for _, g := range snap.Gauges {
			if g.Name == name {
				v += g.Value
			}
		}
		return v
	}
	hits := value(obs.MetricTemplateHits)
	misses := value(obs.MetricTemplateMisses)
	if hits+misses == 0 {
		return
	}
	tbl := &stats.Table{Header: []string{"template cache", "count"}}
	tbl.AddRow("hits", fmt.Sprintf("%.0f", hits))
	tbl.AddRow("misses (compilations)", fmt.Sprintf("%.0f", misses))
	tbl.AddRow("templates resident", fmt.Sprintf("%.0f", value(obs.MetricTemplatesCached)))
	fmt.Printf("\nQRG construction (compiled templates):\n%s", tbl)
}

// printFaults summarizes the fault-injection and session-repair
// counters of a chaos run: injected fault events by kind, the repair
// outcomes of the affected sessions, and the leased holds reclaimed by
// expiry sweeps. Silent when no fault was ever injected (every
// non-chaos run).
func printFaults(reg *obs.Registry) {
	snap := reg.Snapshot()
	value := func(name string) float64 {
		var v float64
		for _, c := range snap.Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		return v
	}
	injected := value(obs.MetricFaultInjected)
	if injected == 0 {
		return
	}
	tbl := &stats.Table{Header: []string{"fault / repair event", "count"}}
	tbl.AddRow("faults injected", fmt.Sprintf("%.0f", injected))
	for _, c := range snap.Counters {
		if c.Name == obs.MetricFaultInjected && c.Value > 0 {
			tbl.AddRow("  "+c.Labels["kind"], fmt.Sprintf("%.0f", c.Value))
		}
	}
	tbl.AddRow("sessions repaired", fmt.Sprintf("%.0f", value(obs.MetricSessionsRepaired)))
	tbl.AddRow("sessions degraded", fmt.Sprintf("%.0f", value(obs.MetricSessionsDegraded)))
	tbl.AddRow("sessions repair-failed", fmt.Sprintf("%.0f", value(obs.MetricSessionsRepairFailed)))
	tbl.AddRow("leased holds expired", fmt.Sprintf("%.0f", value(obs.MetricLeasesExpired)))
	fmt.Printf("\nfault injection / session repair:\n%s", tbl)
}

// printTransport summarizes the message-fabric counters of an
// unreliable-messaging chaos run: protocol messages by kind, deliveries
// dropped by reason, duplicated deliveries, calls abandoned at their
// deadline or failed fast by an open breaker, admissions shed by the
// overload gate, and repair work abandoned at a sweep deadline. Silent
// when no message ever crossed an instrumented fabric (every run
// without transport chaos).
func printTransport(reg *obs.Registry) {
	snap := reg.Snapshot()
	value := func(name string) float64 {
		var v float64
		for _, c := range snap.Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		return v
	}
	messages := value(obs.MetricTransportMessages)
	if messages == 0 {
		return
	}
	tbl := &stats.Table{Header: []string{"transport event", "count"}}
	tbl.AddRow("messages sent", fmt.Sprintf("%.0f", messages))
	for _, c := range snap.Counters {
		if c.Name == obs.MetricTransportMessages && c.Value > 0 {
			tbl.AddRow("  "+c.Labels["kind"], fmt.Sprintf("%.0f", c.Value))
		}
	}
	tbl.AddRow("deliveries dropped", fmt.Sprintf("%.0f", value(obs.MetricTransportDropped)))
	for _, c := range snap.Counters {
		if c.Name == obs.MetricTransportDropped && c.Value > 0 {
			tbl.AddRow("  "+c.Labels["reason"], fmt.Sprintf("%.0f", c.Value))
		}
	}
	tbl.AddRow("deliveries duplicated", fmt.Sprintf("%.0f", value(obs.MetricTransportDuplicated)))
	tbl.AddRow("calls timed out", fmt.Sprintf("%.0f", value(obs.MetricTransportCallTimeouts)))
	tbl.AddRow("breaker fast-fails", fmt.Sprintf("%.0f", value(obs.MetricTransportBreakerFastFail)))
	tbl.AddRow("admissions shed", fmt.Sprintf("%.0f", value(obs.MetricAdmissionShed)))
	tbl.AddRow("repairs abandoned at deadline", fmt.Sprintf("%.0f", value(obs.MetricRepairAbandoned)))
	fmt.Printf("\ntransport (unreliable messaging):\n%s", tbl)
	printCallLatency(snap)
}

// printCallLatency renders the fabric call-latency histograms
// (qosres_transport_call_seconds) aggregated across routes, one row per
// message kind. Silent when no call was ever timed.
func printCallLatency(snap obs.SnapshotData) {
	type agg struct {
		count  uint64
		bounds []float64
		counts []uint64 // per-bucket, finite bounds only
	}
	kinds := map[string]*agg{}
	var order []string
	for _, h := range snap.Histograms {
		if h.Name != obs.MetricTransportCallSeconds {
			continue
		}
		kind := h.Labels["kind"]
		a := kinds[kind]
		if a == nil {
			a = &agg{bounds: make([]float64, len(h.Buckets)), counts: make([]uint64, len(h.Buckets))}
			for i, b := range h.Buckets {
				a.bounds[i] = b.UpperBound
			}
			kinds[kind] = a
			order = append(order, kind)
		}
		var prev uint64
		for i, b := range h.Buckets {
			a.counts[i] += b.Count - prev
			prev = b.Count
		}
		a.count += h.Count
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)
	// Linear interpolation inside the landing bucket, same estimate as
	// obs.Histogram.Quantile; the overflow bucket reports the largest
	// finite bound.
	quantile := func(a *agg, q float64) float64 {
		if a.count == 0 || len(a.bounds) == 0 {
			return 0
		}
		target := q * float64(a.count)
		var cum float64
		for i, c := range a.counts {
			prev := cum
			cum += float64(c)
			if cum < target || c == 0 {
				continue
			}
			lower := 0.0
			if i > 0 {
				lower = a.bounds[i-1]
			}
			return lower + (a.bounds[i]-lower)*(target-prev)/float64(c)
		}
		return a.bounds[len(a.bounds)-1]
	}
	tbl := &stats.Table{Header: []string{"fabric call", "count", "p50 µs", "p99 µs"}}
	for _, k := range order {
		a := kinds[k]
		tbl.AddRow(k, fmt.Sprintf("%d", a.count),
			fmt.Sprintf("%.1f", 1e6*quantile(a, 0.50)),
			fmt.Sprintf("%.1f", 1e6*quantile(a, 0.99)))
	}
	fmt.Printf("\nfabric call latency (per message kind):\n%s", tbl)
}

// printUtilization summarizes the end-of-run per-resource utilization
// gauges: the most loaded resources first.
func printUtilization(reg *obs.Registry) {
	snap := reg.Snapshot()
	type util struct {
		resource string
		value    float64
	}
	var us []util
	for _, g := range snap.Gauges {
		if g.Name == obs.MetricUtilization {
			us = append(us, util{g.Labels["resource"], g.Value})
		}
	}
	if len(us) == 0 {
		return
	}
	sort.Slice(us, func(i, j int) bool {
		if us[i].value != us[j].value {
			return us[i].value > us[j].value
		}
		return us[i].resource < us[j].resource
	})
	const top = 8
	fmt.Printf("\nend-of-run resource utilization (top %d of %d):\n", min(top, len(us)), len(us))
	for i, u := range us {
		if i == top {
			break
		}
		fmt.Printf("  %-28s %5.1f%%\n", u.resource, 100*u.value)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simqos:", err)
	os.Exit(1)
}
