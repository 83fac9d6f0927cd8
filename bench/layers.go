package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/qrg"
	"qosres/internal/sim"
	"qosres/internal/spec"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// layerMetric declares one per-layer metric; BENCHMARK.json lists the
// same names (a unit test holds the two together).
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"loadgen.windows", "count", "higher"},
	{"loadgen.samples_per_window", "count", "higher"},
	{"loadgen.quiet_spread", "ratio", "lower"},
	{"loadgen.sessions_per_sec_median", "1/s", "higher"},
	{"loadgen.establish_p50_ms_median", "ms", "lower"},
	{"loadgen.establish_p95_ms_median", "ms", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "higher"},
	{"loadgen.open_late_p95_ms", "ms", "lower"},
	{"qosserved.boot_ready_ms", "ms", "lower"},
	{"qosserved.establish_rt_us", "us", "lower"},
	{"qosserved.teardown_rt_us", "us", "lower"},
	{"qosserved.heartbeat_rt_us", "us", "lower"},
	{"qosserved.renegotiate_rt_us", "us", "lower"},
	{"qosserved.front_self_us", "us", "lower"},
	{"qosserved.req_bytes", "B", "lower"},
	{"qosserved.resp_bytes", "B", "lower"},
	{"qosserved.cpu_us_per_session", "us", "lower"},
	{"qosserved.alloc_kb_per_session", "kB", "lower"},
	{"qosserved.gc_cycles_per_1k_sessions", "count", "lower"},
	{"qosserved.open_p50_ms", "ms", "lower"},
	{"qosserved.open_p95_ms", "ms", "lower"},
	{"qosserved.errors", "count", "lower"},
	{"spec.parse_us", "us", "lower"},
	{"spec.build_us", "us", "lower"},
	{"spec.encode_us", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.append_disk_us", "us", "lower"},
	{"wal.appends_per_session", "count", "lower"},
	{"wal.bytes_per_session", "B", "lower"},
	{"wal.establish_us", "us", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.replay_records", "count", "lower"},
	{"proxy.establish_us", "us", "lower"},
	{"proxy.release_us", "us", "lower"},
	{"proxy.renegotiate_us", "us", "lower"},
	{"proxy.heartbeat_us", "us", "lower"},
	{"proxy.self_us", "us", "lower"},
	{"proxy.admit_retries_per_session", "count", "lower"},
	{"proxy.stale_rejections_per_session", "count", "lower"},
	{"proxy.recover_ms", "ms", "lower"},
	{"transport.call_us", "us", "lower"},
	{"broker.snapshot_us", "us", "lower"},
	{"broker.reserve_us", "us", "lower"},
	{"broker.release_us", "us", "lower"},
	{"broker.refused_ratio", "ratio", "lower"},
	{"broker.stripe_locks_per_session", "count", "lower"},
	{"qrg.compile_us", "us", "lower"},
	{"qrg.instantiate_us", "us", "lower"},
	{"qrg.template_hit_ratio", "ratio", "higher"},
	{"core.plan_basic_us", "us", "lower"},
	{"core.plan_tradeoff_us", "us", "lower"},
	{"core.infeasible_ratio", "ratio", "lower"},
	{"sim.run_ms", "ms", "lower"},
}

// budgetRows are the per-layer metrics that, by construction, sum to
// qosserved.establish_rt_us: each is a difference between two nested
// configurations or a directly timed call of the innermost one.
var budgetRows = []string{
	"qosserved.front_self_us", // HTTP round trip − in-process Establish with WAL
	"wal.establish_us",        // in-process with WAL − without
	"proxy.self_us",           // in-process without WAL − the calls below
	"spec.build_us",
	"broker.snapshot_us",
	"qrg.compile_us",
	"qrg.instantiate_us",
	"core.plan_basic_us",
	"broker.reserve_us",
}

// tracedRun is the separate run that produces the per-layer metrics: the
// workload first untraced then traced (their ratio is the tracing
// overhead), then the layer probes, which are the same on every
// workload. Spans go to .bench_build/spans-<workload>.jsonl.
func tracedRun(name string, w workload, env *runEnv) (map[string]metric, error) {
	rec := newRecorder()
	if err := w.setup(); err != nil {
		w.discard()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := settle(w); err != nil {
		w.discard()
		return nil, err
	}
	part := env.seconds / 5
	plain, err := measure(w, nil, part, 8)
	if err != nil {
		w.discard()
		return nil, err
	}
	traced, err := measure(w, rec, part, 8)
	if err != nil {
		w.discard()
		return nil, err
	}
	_, checkErr := w.finish()
	pe, te := quietEstimate(plain), quietEstimate(traced)

	v := map[string]float64{
		"loadgen.windows":                 float64(te.windows),
		"loadgen.samples_per_window":      te.samplesPerWindow,
		"loadgen.quiet_spread":            te.quietSpread,
		"loadgen.sessions_per_sec_median": te.perSecMedian,
		"loadgen.establish_p50_ms_median": te.p50MsMedian,
		"loadgen.establish_p95_ms_median": te.p95MsMedian,
		"loadgen.trace_overhead_ratio":    te.perSec / pe.perSec,
	}
	probeErr := probes(env, rec, v)

	spans := rec.snapshot()
	path := filepath.Join(env.root, ".bench_build", "spans-"+name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  %d spans written to %s\n", len(spans), path)
	_, self := spanMedians(spans)
	fmt.Printf("  harness self time per admission: walk %.2f µs, budget cycle %.2f µs\n",
		self["walk/admission"], self["budget/cycle"])
	printBudget(v)

	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		val, ok := v[lm.name]
		if !ok && probeErr == nil {
			probeErr = fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		out[lm.name] = metric{val, lm.unit}
	}
	return out, errors.Join(checkErr, probeErr)
}

func printBudget(v map[string]float64) {
	fmt.Printf("  per-admission budget of served_mix (one connection, median µs):\n")
	sum := 0.0
	for _, row := range budgetRows {
		fmt.Printf("    %-28s %9.2f\n", row, v[row])
		sum += v[row]
	}
	fmt.Printf("    %-28s %9.2f  (qosserved.establish_rt_us %.2f)\n", "sum", sum, v["qosserved.establish_rt_us"])
}

// probes measures every layer from outside and fills v. A failed probe
// does not stop the others, so the metrics stay complete; every failure
// is returned.
func probes(env *runEnv, rec *recorder, v map[string]float64) error {
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	note(probeWalk(env, rec, v))
	note(probeWAL(env, rec))
	note(probeTransport(rec))
	note(probeSim(rec))
	note(probeInproc(env, rec, v))
	note(probeContended(env, rec, v))
	note(probeBudgetAndOpenLoop(env, rec, v))

	dur, _ := spanMedians(rec.snapshot())
	for metricName, spanName := range map[string]string{
		"spec.encode_us":              "walk/spec.encode",
		"spec.parse_us":               "walk/spec.parse",
		"spec.build_us":               "walk/spec.build",
		"broker.snapshot_us":          "walk/broker.snapshot",
		"qrg.compile_us":              "walk/qrg.compile",
		"qrg.instantiate_us":          "walk/qrg.instantiate",
		"core.plan_basic_us":          "walk/core.plan_basic",
		"core.plan_tradeoff_us":       "walk/core.plan_tradeoff",
		"broker.reserve_us":           "walk/broker.reserve",
		"broker.release_us":           "walk/broker.release",
		"wal.append_us":               "probe/wal.append",
		"wal.append_disk_us":          "probe/wal.append_disk",
		"transport.call_us":           "probe/transport.call",
		"proxy.establish_us":          "nowal/proxy.establish",
		"proxy.release_us":            "nowal/proxy.release",
		"proxy.heartbeat_us":          "nowal/proxy.heartbeat",
		"proxy.renegotiate_us":        "nowal/proxy.renegotiate",
		"qosserved.establish_rt_us":   "budget/http.establish",
		"qosserved.teardown_rt_us":    "budget/http.teardown",
		"qosserved.heartbeat_rt_us":   "contended/http.heartbeat",
		"qosserved.renegotiate_rt_us": "contended/http.renegotiate",
	} {
		d, ok := dur[spanName]
		if !ok {
			note(fmt.Errorf("no %s spans recorded", spanName))
			continue
		}
		v[metricName] = d
	}
	v["sim.run_ms"] = dur["probe/sim.run"] / 1e3

	// The budget, by subtraction across nested configurations.
	withWAL := dur["wal/proxy.establish"]
	calls := v["spec.build_us"] + v["broker.snapshot_us"] + v["qrg.compile_us"] +
		v["qrg.instantiate_us"] + v["core.plan_basic_us"] + v["broker.reserve_us"]
	v["qosserved.front_self_us"] = v["qosserved.establish_rt_us"] - withWAL
	v["wal.establish_us"] = withWAL - v["proxy.establish_us"]
	v["proxy.self_us"] = v["proxy.establish_us"] - calls
	for _, row := range []string{"qosserved.front_self_us", "wal.establish_us", "proxy.self_us"} {
		if v[row] < 0 {
			note(fmt.Errorf("budget: %s is negative (%.2f µs)", row, v[row]))
		}
	}
	return errors.Join(errs...)
}

// timed runs fn inside a span.
func timed(rec *recorder, name string, parent int, session int64, fn func() error) error {
	sp := rec.start(name, parent, session)
	err := fn()
	rec.end(sp)
	return err
}

// inprocCorpus draws the deployment's offers in-process: the same
// sequence GET /spec hands out, since both sample one seeded source.
func inprocCorpus(se *sim.ServedEnv, n int) ([]*sim.SampledSession, error) {
	out := make([]*sim.SampledSession, 0, n)
	for i := 0; i < n; i++ {
		s, err := se.SampleSession()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// bindingResources lists the concrete resources a binding names.
func bindingResources(b map[string]map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range b {
		for _, r := range m {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

// probeWalk takes the corpus through each layer's public function on
// its own, against an idle figure-9 pool with the deployment's
// capacities: what one admission costs each layer with no protocol
// around it.
func probeWalk(env *runEnv, rec *recorder, v map[string]float64) error {
	rec.scope = "walk/"
	defer func() { rec.scope = "" }()
	se, err := sim.NewServedEnv(sim.ServedOptions{Seed: deploymentSeed})
	if err != nil {
		return err
	}
	corpus, err := inprocCorpus(se, corpusSize)
	_ = se.Close() // no WAL: nothing to flush
	if err != nil {
		return err
	}
	// sim.Run exposes the pool it built; one virtual time unit admits at
	// most a session or two and releases them before returning.
	cfg := sim.DefaultConfig(sim.AlgBasic, 60, deploymentSeed)
	cfg.Duration = 1
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	pool := res.Pool
	cache := qrg.NewTemplateCache(nil)
	now := broker.Time(10)
	var stripes, batches int
	for i, idx := range rand.New(rand.NewSource(env.seed)).Perm(len(corpus)) {
		s := corpus[idx]
		n := int64(i)
		root := rec.start("admission", 0, n)
		var (
			data []byte
			doc  *spec.Session
			snap *broker.Snapshot
			tpl  *qrg.Template
			g    *qrg.Graph
			plan *core.Plan
			held *broker.MultiReservation
		)
		err := timed(rec, "spec.encode", root, n, func() (err error) { data, err = s.Doc.Encode(); return })
		if err == nil {
			err = timed(rec, "spec.parse", root, n, func() (err error) { doc, err = spec.Parse(data); return })
		}
		if err != nil {
			return err
		}
		sp := rec.start("spec.build", root, n)
		service, svcBinding, _, err := doc.Build()
		rec.end(sp)
		if err != nil {
			return err
		}
		resources := bindingResources(doc.Binding)
		if err = timed(rec, "broker.snapshot", root, n, func() (err error) { snap, err = pool.Snapshot(now, resources); return }); err != nil {
			return err
		}
		// Build returns a fresh service each time and the cache keys on
		// its identity, so Get compiles — as it does behind the daemon.
		if err = timed(rec, "qrg.compile", root, n, func() (err error) { tpl, err = cache.Get(service, svcBinding); return }); err != nil {
			return err
		}
		if err = timed(rec, "qrg.instantiate", root, n, func() (err error) { g, err = tpl.Instantiate(snap); return }); err != nil {
			return err
		}
		err = timed(rec, "core.plan_basic", root, n, func() (err error) { plan, err = core.Basic{}.Plan(g); return })
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return err
		}
		err = timed(rec, "core.plan_tradeoff", root, n, func() error { _, err := core.Tradeoff{}.Plan(g); return err })
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return err
		}
		tpl.Recycle(g)
		pool.RecycleSnapshot(snap)
		if plan != nil {
			req := plan.Requirement()
			if i%8 == 7 {
				// The batch entry point reports the stripes it locked.
				held, err = reserveCounting(pool, now, req, &stripes, &batches)
			} else {
				err = timed(rec, "broker.reserve", root, n, func() (err error) { held, err = pool.ReserveAllAtomic(now, req); return })
			}
			if err != nil && !errors.Is(err, broker.ErrInsufficient) {
				return err
			}
			if held != nil {
				if err = timed(rec, "broker.release", root, n, func() error { return held.Release(now) }); err != nil {
					return err
				}
			}
		}
		rec.end(root)
		now++
	}
	if batches == 0 {
		return errors.New("walk: no reservation went through the batch entry point")
	}
	v["broker.stripe_locks_per_session"] = float64(stripes) / float64(batches)
	return nil
}

func reserveCounting(pool *broker.Pool, now broker.Time, req qos.ResourceVector, stripes, batches *int) (*broker.MultiReservation, error) {
	held, errs, stats := pool.ReserveBatchAll(now, []qos.ResourceVector{req})
	*stripes += stats.StripesLocked
	*batches++
	return held[0], errs[0]
}

// probeWAL times a framed, fsynced append on the tmpfs the daemon logs
// to and, for the record, on the disk under the checkout.
func probeWAL(env *runEnv, rec *recorder) error {
	rec.scope = "probe/"
	defer func() { rec.scope = "" }()
	record := wal.Record{Type: wal.TypePrepare, Host: "H1", ID: "bench-1", Expiry: 600, Parts: []wal.Part{
		{Resource: "cpu@H1", ID: 1, Amount: 130},
		{Resource: "net:H1->H2", ID: 2, Amount: 104, Links: []wal.Link{{Resource: "link:L1", ID: 3}}},
	}}
	for _, p := range []struct {
		span, dir string
		n         int
	}{
		{"wal.append", filepath.Join(env.walBase, "probe-wal"), 2000},
		{"wal.append_disk", filepath.Join(env.runDir, "probe-wal-disk"), 64},
	} {
		log, err := wal.Open(wal.Options{Dir: p.dir})
		if err != nil {
			return err
		}
		for i := 0; i < p.n; i++ {
			if err := timed(rec, p.span, 0, int64(i), func() error { return log.Append(record) }); err != nil {
				log.Close()
				return err
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	return nil
}

// probeTransport times one request/reply over a perfect fabric, the hop
// every inter-proxy message pays.
func probeTransport(rec *recorder) error {
	rec.scope = "probe/"
	defer func() { rec.scope = "" }()
	f := transport.New(transport.Options{})
	f.Endpoint("bench-a", 1)
	echo := f.Endpoint("bench-b", 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case d := <-echo.Inbox():
				d.Reply(d.Payload)
				d.Done()
			case <-echo.Done():
				return
			}
		}
	}()
	defer wg.Wait()
	defer echo.Close()
	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		err := timed(rec, "transport.call", 0, int64(i), func() error {
			_, err := f.Call(ctx, "bench-a", "bench-b", "echo", i)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func probeSim(rec *recorder) error {
	rec.scope = "probe/"
	defer func() { rec.scope = "" }()
	for i := 0; i < 3; i++ {
		if err := timed(rec, "sim.run", 0, int64(i), func() error { _, err := runSim(1, &simTimer{}); return err }); err != nil {
			return err
		}
	}
	return nil
}

// probeInproc runs the deployment in-process, one caller, with and
// without the WAL: the two inner configurations of the budget. The two
// are alternated cycle by cycle so that a drifting host moves both; the
// log's share is a small difference between two large numbers. A
// two-goroutine burst then reads the admission-retry counters.
func probeInproc(env *runEnv, rec *recorder, v map[string]float64) error {
	defer func() { rec.scope = "" }()
	ctx := context.Background()
	type config struct {
		scope string
		se    *sim.ServedEnv
	}
	var configs []config
	closeAll := func() error {
		var errs []error
		for _, c := range configs {
			errs = append(errs, c.se.Close())
		}
		env.wipeWAL()
		return errors.Join(errs...)
	}
	for _, c := range []struct{ scope, walDir string }{{"nowal/", ""}, {"wal/", env.walDir()}} {
		se, err := sim.NewServedEnv(sim.ServedOptions{Seed: deploymentSeed, LeaseTTL: leaseSeconds, WALDir: c.walDir})
		if err != nil {
			_ = closeAll() // the first error is the one to report
			return err
		}
		configs = append(configs, config{c.scope, se})
	}
	corpus, err := inprocCorpus(configs[0].se, corpusSize)
	if err != nil {
		_ = closeAll()
		return err
	}
	order := rand.New(rand.NewSource(env.seed)).Perm(len(corpus))
	// Unrecorded cycles first, until both deployments are steady.
	settled := time.Now().Add(alphaSettle)
	for n, recording := 0, false; n < 2*len(order) || !recording; n++ {
		if !recording && time.Now().After(settled) {
			recording, n = true, 0
		}
		o := corpus[order[n%len(order)]]
		for k := range configs {
			c := configs[(k+n)%len(configs)]
			r := rec
			if !recording {
				r = nil
			}
			rec.scope = c.scope
			if err := inprocCycle(ctx, r, c.se, o, int64(n), c.scope == "nowal/"); err != nil {
				_ = closeAll()
				return err
			}
		}
	}
	for _, c := range configs {
		if live := c.se.Runtime().LiveSessions(); live != 0 {
			_ = closeAll()
			return fmt.Errorf("in-process pass %s left %d sessions live", c.scope, live)
		}
	}
	if err := closeAll(); err != nil {
		return err
	}

	rec.scope = "burst/"
	reg := obs.New()
	counters := func() map[string]float64 {
		ctr := map[string]float64{}
		for _, c := range reg.Snapshot().Counters {
			ctr[c.Name] += c.Value
		}
		return ctr
	}
	hot := newInprocHot(env)
	hot.reg = reg
	if err := hot.setup(); err != nil {
		return err
	}
	// Not settled: only the counters are read here, not the clock.
	before, decisions := counters(), 0
	for i := 0; i < 8; i++ {
		w, err := hot.window(rec)
		if err != nil {
			hot.discard()
			return err
		}
		decisions += w.decisions
	}
	after := counters()
	if _, err := hot.finish(); err != nil {
		return err
	}
	const stale = "qosres_admit_stale_rejections_total"
	v["proxy.admit_retries_per_session"] = (after[obs.MetricAdmitRetries] - before[obs.MetricAdmitRetries]) / float64(decisions)
	v["proxy.stale_rejections_per_session"] = (after[stale] - before[stale]) / float64(decisions)
	return nil
}

// inprocCycle establishes and releases one offer in-process. With
// extras it also times the other session operations, where neither
// codec nor log is in the way.
func inprocCycle(ctx context.Context, rec *recorder, se *sim.ServedEnv, o *sim.SampledSession, n int64, extras bool) error {
	root := rec.start("cycle", 0, n)
	defer rec.end(root)
	sp := rec.start("proxy.establish", root, n)
	s, err := se.Establish(ctx, o.MainHost, o.Doc)
	rec.end(sp)
	if errors.Is(err, core.ErrInfeasible) || errors.Is(err, broker.ErrInsufficient) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("in-process establish: %w", err)
	}
	if extras {
		if err := timed(rec, "proxy.heartbeat", root, n, s.Heartbeat); err != nil {
			return fmt.Errorf("in-process heartbeat: %w", err)
		}
		if lower := levelBelow(o.Doc.Ranking, s.CurrentPlan().EndToEnd.Name); lower != "" {
			if err := timed(rec, "proxy.renegotiate", root, n, func() error { return se.Renegotiate(ctx, s, lower) }); err != nil {
				return fmt.Errorf("in-process renegotiate: %w", err)
			}
		}
	}
	if err := timed(rec, "proxy.release", root, n, s.Release); err != nil {
		return fmt.Errorf("in-process release: %w", err)
	}
	return nil
}

// levelBelow returns the level ranked just under level, or "".
func levelBelow(ranking []string, level string) string {
	for i, l := range ranking {
		if l == level && i+1 < len(ranking) {
			return ranking[i+1]
		}
	}
	return ""
}

// probeContended drives a daemon with the served_contended mix for a
// few windows and reads what only a process boundary shows: boot time,
// CPU, allocation and GC per session, log appends and bytes per
// session, refusal causes, and — through the workload's own crash
// check — replay and recovery time.
func probeContended(env *runEnv, rec *recorder, v map[string]float64) error {
	rec.scope = "contended/"
	defer func() { rec.scope = "" }()
	w := newServedContended(env)
	if err := w.setup(); err != nil {
		return err
	}
	if err := settle(w); err != nil {
		w.discard()
		return err
	}
	v["qosserved.boot_ready_ms"] = w.d.bootMs
	type marks struct {
		mem      memStats
		cpu      time.Duration
		ctr      map[string]float64
		walBytes int64
	}
	mark := func() (m marks, err error) {
		if m.mem, err = w.c.memStats(); err != nil {
			return
		}
		if m.cpu, err = procCPU(w.d.pid()); err != nil {
			return
		}
		if m.ctr, err = w.c.counters(); err != nil {
			return
		}
		m.walBytes, err = dirBytes(env.walDir())
		return
	}
	before, err := mark()
	if err != nil {
		w.discard()
		return err
	}
	decisions, admitted := 0, 0
	w.infeasible, w.refused = 0, 0
	for i := 0; i < 12; i++ {
		win, err := w.window(rec)
		if err != nil {
			w.discard()
			return err
		}
		decisions += win.decisions
		admitted += win.admitted
	}
	after, err := mark()
	if err != nil {
		w.discard()
		return err
	}
	n := float64(decisions)
	v["qosserved.cpu_us_per_session"] = us(after.cpu-before.cpu) / n
	v["qosserved.alloc_kb_per_session"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / n
	v["qosserved.gc_cycles_per_1k_sessions"] = float64(after.mem.NumGC-before.mem.NumGC) * 1000 / n
	v["wal.appends_per_session"] = (after.ctr[obs.MetricWALAppends] - before.ctr[obs.MetricWALAppends]) / n
	v["wal.bytes_per_session"] = float64(after.walBytes-before.walBytes) / n
	hits := after.ctr["qosres_qrg_template_hits_total"] - before.ctr["qosres_qrg_template_hits_total"]
	misses := after.ctr["qosres_qrg_template_misses_total"] - before.ctr["qosres_qrg_template_misses_total"]
	if hits+misses > 0 {
		v["qrg.template_hit_ratio"] = hits / (hits + misses)
	}
	v["core.infeasible_ratio"] = float64(w.infeasible) / n
	v["broker.refused_ratio"] = float64(w.refused) / n
	if unexplained := decisions - admitted - w.infeasible - w.refused; unexplained != 0 {
		w.discard()
		return fmt.Errorf("contended probe: %d refusals name neither the planner nor the brokers", unexplained)
	}
	_, err = w.finish()
	v["wal.replay_ms"] = w.replayMs
	v["wal.replay_records"] = float64(w.replayRecords)
	v["proxy.recover_ms"] = w.recoverMs
	_, failed := w.counts()
	v["qosserved.errors"] = float64(failed)
	return err
}

// probeBudgetAndOpenLoop runs served_mix's cycle from one connection,
// the outermost configuration of the budget, then offers the same daemon
// a fixed arrival rate.
func probeBudgetAndOpenLoop(env *runEnv, rec *recorder, v map[string]float64) error {
	rec.scope = "budget/"
	defer func() { rec.scope = "" }()
	w := newServedMix(env, 1)
	if err := w.setup(); err != nil {
		return err
	}
	if err := settle(w); err != nil {
		w.discard()
		return err
	}
	for i := 0; i < 6; i++ {
		if _, err := w.window(rec); err != nil {
			w.discard()
			return err
		}
	}
	c := w.conns[0]
	v["qosserved.req_bytes"] = float64(c.reqBytes) / float64(c.establishes)
	v["qosserved.resp_bytes"] = float64(c.respBytes) / float64(c.establishes)

	rec.scope = "open/"
	open, err := openLoop(w, rec, 400, max(3, env.seconds/5))
	if err != nil {
		w.discard()
		return err
	}
	v["qosserved.open_p50_ms"] = quantile(open.latMs, 0.50)
	v["qosserved.open_p95_ms"] = quantile(open.latMs, 0.95)
	v["loadgen.open_late_p95_ms"] = quantile(open.lateMs, 0.95)
	_, err = w.finish()
	v["qosserved.errors"] += float64(w.failed)
	return err
}

type openResult struct{ latMs, lateMs []float64 }

// openLoop offers rate arrivals per second for the given time whatever
// the daemon's pace: each arrival is an establish (then a teardown) and
// is timed from the instant it was due, so a stall charges the arrivals
// queued behind it. lateMs is how late the generator itself dispatched.
func openLoop(w *servedMix, rec *recorder, rate, seconds float64) (openResult, error) {
	const workers = 4
	total := int(rate * seconds)
	type job struct {
		n   int
		due time.Time
	}
	// Sized to the whole run: the generator must never block on a slow
	// daemon, or the loop would close.
	jobs := make(chan job, total)
	conns := make([]*conn, workers)
	lat := make([][]float64, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		conns[k] = newConn(w.d.base)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := conns[k]
			for j := range jobs {
				o := w.corpus[w.order[j.n%len(w.order)]]
				sp := rec.start("http.establish", 0, int64(j.n))
				a, ok, _ := c.establish(o)
				lat[k] = append(lat[k], ms(time.Since(j.due)))
				rec.end(sp)
				if ok {
					c.simple("teardown", a.ID)
				}
			}
		}(k)
	}
	var res openResult
	begin := time.Now()
	for n := 0; n < total; n++ {
		due := begin.Add(time.Duration(float64(n) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMs = append(res.lateMs, ms(time.Since(due)))
		jobs <- job{n, due}
	}
	close(jobs)
	wg.Wait()
	for k, c := range conns {
		res.latMs = append(res.latMs, lat[k]...)
		w.attempted += int(c.establishes)
		_ = w.absorb(c) // finish reports the failures
		c.close()
	}
	if len(res.latMs) == 0 {
		return res, errors.New("open loop: no arrivals")
	}
	return res, nil
}
