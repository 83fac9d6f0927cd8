package sim

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"qosres/internal/obs"
	"qosres/internal/trace"
)

// kindTally counts traced events by kind.
type kindTally struct {
	mu sync.Mutex
	n  map[trace.Kind]int
}

func (k *kindTally) Trace(ev trace.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == nil {
		k.n = make(map[trace.Kind]int)
	}
	k.n[ev.Kind]++
}

// exposition scrapes the registry's Prometheus text page.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.NewMux(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// treeCollector keeps every exported span tree.
type treeCollector struct {
	mu    sync.Mutex
	trees [][]obs.SpanRecord
}

func (c *treeCollector) ExportTrace(spans []obs.SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trees = append(c.trees, spans)
}

// TestRunRecordsMetrics checks that an instrumented run populates the
// registry: session-event counters that reconcile with the metrics,
// stage-latency histograms for every planning stage, Ψ observations,
// and per-resource utilization/α gauges.
func TestRunRecordsMetrics(t *testing.T) {
	reg := obs.New()
	cfg := quickConfig(AlgTradeoff, 150)
	cfg.Obs = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics

	count := func(event string) float64 {
		return reg.Counter(obs.MetricSessionEvents, "", "event", event).Value()
	}
	if got := count("arrival"); got != float64(m.Overall.Attempts) {
		t.Errorf("arrivals counter = %g, metrics attempts = %d", got, m.Overall.Attempts)
	}
	if got := count("reserved"); got != float64(m.Overall.Successes) {
		t.Errorf("reserved counter = %g, metrics successes = %d", got, m.Overall.Successes)
	}
	if got := count("plan_failed"); got != float64(m.PlanFailures) {
		t.Errorf("plan_failed counter = %g, metrics = %d", got, m.PlanFailures)
	}
	if got := count("released"); got <= 0 || got > count("reserved") {
		t.Errorf("released counter = %g out of range", got)
	}

	st := obs.NewPlanStages(reg)
	for name, h := range map[string]*obs.Histogram{
		"snapshot": st.Snapshot, "qrg_build": st.Build,
		"plan": st.Plan, "reserve": st.Reserve,
	} {
		if h.Count() == 0 {
			t.Errorf("stage %s recorded no observations", name)
		}
		if p99 := h.Quantile(0.99); p99 <= 0 {
			t.Errorf("stage %s p99 = %g", name, p99)
		}
	}

	if psi := reg.Histogram(obs.MetricPlanPsi, "", nil); psi.Count() != uint64(m.Overall.Successes) {
		t.Errorf("psi observations = %d, successes = %d", psi.Count(), m.Overall.Successes)
	}

	snap := reg.Snapshot()
	var utils, alphas int
	for _, g := range snap.Gauges {
		switch g.Name {
		case obs.MetricUtilization:
			utils++
			if g.Value < 0 || g.Value > 1 {
				t.Errorf("utilization %s = %g out of [0,1]", g.Labels["resource"], g.Value)
			}
		case obs.MetricAlpha:
			alphas++
		}
	}
	if utils == 0 || alphas == 0 {
		t.Fatalf("gauges missing: %d utilization, %d alpha", utils, alphas)
	}
}

// TestRuntimeModeRecordsStages checks that runtime-mode runs record the
// same stage vocabulary through the three-phase protocol, plus the
// end-to-end establish stage.
func TestRuntimeModeRecordsStages(t *testing.T) {
	reg := obs.New()
	cfg := quickConfig(AlgBasic, 120)
	cfg.UseRuntime = true
	cfg.Obs = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st := obs.NewPlanStages(reg)
	for name, h := range map[string]*obs.Histogram{
		"snapshot": st.Snapshot, "qrg_build": st.Build, "plan": st.Plan,
		"reserve": st.Reserve, "establish": st.Establish,
	} {
		if h.Count() == 0 {
			t.Errorf("runtime mode: stage %s recorded no observations", name)
		}
	}
}

// TestObsDoesNotPerturbResults is the guard that instrumentation is
// observation-only: an instrumented run and a bare run of the same
// config produce identical metrics.
func TestObsDoesNotPerturbResults(t *testing.T) {
	bare, err := Run(quickConfig(AlgTradeoff, 150))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(AlgTradeoff, 150)
	cfg.Obs = obs.New()
	cfg.TraceSample = 1
	cfg.Tracer = &kindTally{}
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics.Overall != instrumented.Metrics.Overall {
		t.Fatalf("instrumentation changed results: %+v vs %+v",
			bare.Metrics.Overall, instrumented.Metrics.Overall)
	}
}

// TestRuntimeTraceParity asserts that a UseRuntime run emits the same
// event-kind tallies per session stream as the direct path.
func TestRuntimeTraceParity(t *testing.T) {
	for _, alg := range []Algorithm{AlgBasic, AlgTradeoff, AlgRandom} {
		direct := quickConfig(alg, 150)
		dc := &kindTally{}
		direct.Tracer = dc

		viaRuntime := quickConfig(alg, 150)
		viaRuntime.UseRuntime = true
		rc := &kindTally{}
		viaRuntime.Tracer = rc

		if _, err := Run(direct); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(viaRuntime); err != nil {
			t.Fatal(err)
		}
		if dc.n[trace.Arrival] == 0 {
			t.Fatalf("%s: direct run traced nothing: %v", alg, dc.n)
		}
		if !reflect.DeepEqual(dc.n, rc.n) {
			t.Errorf("%s: direct event tallies %v, runtime %v", alg, dc.n, rc.n)
		}
	}
}

// TestRuntimeSpanTreeParity extends trace parity to the distributed
// span trees: a direct run and a UseRuntime run, both with full trace
// sampling, must export complete trees whose admission roots carry the
// same statuses over the same stage-child sequences. The
// runtime's trees additionally contain fabric call spans and remote
// participant spans nested under the stages — the comparison therefore
// covers root status plus the ordered stage children, the shared
// vocabulary of both execution modes.
func TestRuntimeSpanTreeParity(t *testing.T) {
	signatures := func(useRuntime bool) map[string]int {
		t.Helper()
		cfg := quickConfig(AlgBasic, 150)
		cfg.Duration = 600
		cfg.UseRuntime = useRuntime
		cfg.TraceSample = 1
		col := &treeCollector{}
		check := &treeCheck{out: col}
		if _, err := run(cfg, check); err != nil {
			t.Fatal(err)
		}
		if check.broken > 0 {
			t.Fatalf("useRuntime=%v: %d incomplete tree(s)", useRuntime, check.broken)
		}
		stageNames := map[string]bool{
			obs.StageSnapshot: true, obs.StageBuild: true,
			obs.StagePlan: true, obs.StageReserve: true,
		}
		sigs := map[string]int{}
		for _, spans := range col.trees {
			// Spans arrive in end order; the stage children are compared
			// in start order.
			sort.Slice(spans, func(i, j int) bool {
				if !spans[i].Start.Equal(spans[j].Start) {
					return spans[i].Start.Before(spans[j].Start)
				}
				return spans[i].Span < spans[j].Span
			})
			root := spans[0]
			for _, sp := range spans {
				if sp.Parent == 0 {
					root = sp
				}
			}
			if root.Name != obs.StageEstablish {
				continue
			}
			sig := root.Status
			for _, sp := range spans {
				if sp.Parent == root.Span && stageNames[sp.Name] {
					sig += "|" + sp.Name
				}
			}
			sigs[sig]++
		}
		return sigs
	}

	direct := signatures(false)
	runtime := signatures(true)
	if len(direct) == 0 {
		t.Fatal("direct run produced no admission traces")
	}
	for sig, n := range direct {
		if runtime[sig] != n {
			t.Errorf("signature %q: direct %d trace(s), runtime %d", sig, n, runtime[sig])
		}
	}
	for sig, n := range runtime {
		if _, ok := direct[sig]; !ok {
			t.Errorf("signature %q: runtime-only (%d trace(s))", sig, n)
		}
	}
}

// TestServedMetricFamilies pins the /metrics family set of a served
// deployment after one establish and release, without and with a WAL:
// the runtime registers its sets from the registry it is handed, and
// only a durable runtime adds the log counters.
func TestServedMetricFamilies(t *testing.T) {
	common := []string{
		"qosres_adapt_downgrades_total",
		"qosres_adapt_flaps_suppressed_total",
		"qosres_adapt_held_total",
		"qosres_adapt_upgrades_total",
		"qosres_admission_shed_total",
		"qosres_admit_retries_total",
		"qosres_admit_stale_rejections_total",
		"qosres_delivered_qos_seconds",
		"qosres_leases_expired_total",
		"qosres_plan_psi",
		"qosres_plan_stage_seconds",
		"qosres_qrg_template_evictions_total",
		"qosres_qrg_template_hits_total",
		"qosres_qrg_template_misses_total",
		"qosres_qrg_templates_cached",
		"qosres_repair_deadline_abandoned_total",
		"qosres_reservation_rollbacks_total",
		"qosres_session_events_total",
		"qosres_sessions_degraded_total",
		"qosres_sessions_repair_failed_total",
		"qosres_sessions_repaired_total",
		"qosres_sim_time_tus",
		"qosres_transport_breaker_fastfail_total",
		"qosres_transport_call_timeouts_total",
		"qosres_transport_duplicated_total",
	}
	durable := append(append([]string{}, common...),
		"qosres_recovery_leases_swept_total",
		"qosres_wal_appends_total",
		"qosres_wal_replay_records_total",
	)
	sort.Strings(durable)

	for _, tc := range []struct {
		name string
		wal  bool
		want []string
	}{{"memory", false, common}, {"wal", true, durable}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			opts := ServedOptions{Seed: 1, LeaseTTL: 600, Registry: reg}
			if tc.wal {
				opts.WALDir = t.TempDir()
			}
			se, err := NewServedEnv(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			offer, err := se.SampleSession()
			if err != nil {
				t.Fatal(err)
			}
			s, err := se.EstablishModel(context.Background(), offer.MainHost, offer.Service, offer.Binding)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(); err != nil {
				t.Fatal(err)
			}

			seen := map[string]bool{}
			snap := reg.Snapshot()
			for _, c := range snap.Counters {
				seen[c.Name] = true
			}
			for _, g := range snap.Gauges {
				seen[g.Name] = true
			}
			for _, h := range snap.Histograms {
				seen[h.Name] = true
			}
			got := make([]string, 0, len(seen))
			for n := range seen {
				got = append(got, n)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("families:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
