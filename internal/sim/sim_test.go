package sim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/stats"
	"qosres/internal/topo"
	"qosres/internal/trace"
	"qosres/internal/workload"
)

// quickConfig is a short but statistically meaningful run.
func quickConfig(alg Algorithm, rate float64) Config {
	cfg := DefaultConfig(alg, rate, 42)
	cfg.Duration = 1200
	return cfg
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig(AlgBasic, 120))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(AlgBasic, 120))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Overall != b.Metrics.Overall {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Metrics.Overall, b.Metrics.Overall)
	}
	if a.Metrics.Summary() != b.Metrics.Summary() {
		t.Fatal("summaries differ")
	}
	for r, c := range a.Capacities {
		if b.Capacities[r] != c {
			t.Fatalf("capacity draw differs for %s", r)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a, _ := Run(quickConfig(AlgBasic, 120))
	cfg := quickConfig(AlgBasic, 120)
	cfg.Seed = 43
	b, _ := Run(cfg)
	if a.Metrics.Overall == b.Metrics.Overall && a.Capacities["cpu@H1"] == b.Capacities["cpu@H1"] {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRunReleasesEverything(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 120))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Pool.LocalBrokers() {
		if b.Reservations() != 0 {
			t.Errorf("%s leaked %d reservations", b.Resource(), b.Reservations())
		}
		if math.Abs(b.Available()-b.Capacity()) > 1e-6 {
			t.Errorf("%s not fully restored: %v/%v", b.Resource(), b.Available(), b.Capacity())
		}
	}
}

func TestRunNoReserveFailuresWhenAtomic(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 180))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReserveFailures != 0 {
		t.Fatalf("atomic observation produced %d reserve failures", res.Metrics.ReserveFailures)
	}
}

func TestRunStaleObservationsCauseReserveFailures(t *testing.T) {
	cfg := quickConfig(AlgBasic, 200)
	cfg.StaleE = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ReserveFailures == 0 {
		t.Fatal("heavy staleness at high load should produce reserve failures")
	}
}

func TestRunCapacitiesInRange(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capacities) != 18 {
		t.Fatalf("capacities = %d, want 18", len(res.Capacities))
	}
	for r, c := range res.Capacities {
		if c < 1000 || c > 4000 {
			t.Errorf("%s capacity %v out of [1000,4000]", r, c)
		}
	}
}

func TestRunSessionMixRatios(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 240))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	total := m.Overall.Attempts
	if total < 2000 {
		t.Fatalf("too few sessions: %d", total)
	}
	fat := m.Class(stats.FatShort).Attempts + m.Class(stats.FatLong).Attempts
	long := m.Class(stats.NormLong).Attempts + m.Class(stats.FatLong).Attempts
	fatFrac := float64(fat) / float64(total)
	longFrac := float64(long) / float64(total)
	if math.Abs(fatFrac-2.0/3.0) > 0.05 {
		t.Errorf("fat fraction = %v, want ~2/3", fatFrac)
	}
	if math.Abs(longFrac-1.0/3.0) > 0.05 {
		t.Errorf("long fraction = %v, want ~1/3", longFrac)
	}
}

func TestAlgorithmOrdering(t *testing.T) {
	// The paper's headline: tradeoff >= basic > random in success rate;
	// basic and random nearly level-3 QoS; tradeoff lower.
	get := func(alg Algorithm) *stats.Metrics {
		cfg := DefaultConfig(alg, 150, 7)
		cfg.Duration = 2400
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	basic := get(AlgBasic)
	tradeoff := get(AlgTradeoff)
	random := get(AlgRandom)

	if !(basic.Overall.SuccessRate() > random.Overall.SuccessRate()) {
		t.Errorf("basic (%.3f) must beat random (%.3f)",
			basic.Overall.SuccessRate(), random.Overall.SuccessRate())
	}
	if !(tradeoff.Overall.SuccessRate() > basic.Overall.SuccessRate()) {
		t.Errorf("tradeoff (%.3f) must beat basic (%.3f)",
			tradeoff.Overall.SuccessRate(), basic.Overall.SuccessRate())
	}
	if basic.Overall.AvgQoS() < 2.7 {
		t.Errorf("basic avg QoS = %v, want near 3 (greedy)", basic.Overall.AvgQoS())
	}
	if !(tradeoff.Overall.AvgQoS() < basic.Overall.AvgQoS()) {
		t.Errorf("tradeoff avg QoS (%v) must be below basic (%v)",
			tradeoff.Overall.AvgQoS(), basic.Overall.AvgQoS())
	}
}

func TestFatSessionsSufferMore(t *testing.T) {
	cfg := DefaultConfig(AlgBasic, 180, 11)
	cfg.Duration = 2400
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	norm := m.Class(stats.NormShort).SuccessRate()
	fat := m.Class(stats.FatShort).SuccessRate()
	if !(fat < norm) {
		t.Fatalf("fat (%.3f) should fail more than normal (%.3f)", fat, norm)
	}
}

func TestEveryResourceBecomesBottleneck(t *testing.T) {
	// Section 5.2.2: every resource in the environment becomes the
	// bottleneck resource on a path at least once.
	cfg := DefaultConfig(AlgBasic, 80, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Metrics.BottleneckCounts
	// The session resources: 4 server CPUs plus the end-to-end network
	// resources (12 server pairs + 8 proxy->domain).
	var cpus, nets int
	for r := range counts {
		if len(r) > 4 && r[:4] == "cpu@" {
			cpus++
		}
		if len(r) > 4 && r[:4] == "net:" {
			nets++
		}
	}
	if cpus != 4 {
		t.Errorf("bottleneck CPUs = %d, want all 4", cpus)
	}
	// The 20 end-to-end network resources alias 14 links; a single run
	// need not see every alias as a bottleneck, but a broad majority
	// must appear, demonstrating the dynamic bottleneck identification.
	if nets < 12 {
		t.Errorf("bottleneck network resources = %d, want >= 12 of 20", nets)
	}
}

func TestPathHistogramsCoverBothFamilies(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 80))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"fig10a", "fig10b"} {
		h := res.Metrics.ByFamily[fam]
		if h == nil || h.Total == 0 {
			t.Fatalf("no paths recorded for %s", fam)
		}
		if len(h.Counts) < 4 {
			t.Errorf("%s covers only %d paths", fam, len(h.Counts))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(AlgBasic, 100, 1)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"bad algorithm":  func(c *Config) { c.Algorithm = "genius" },
		"zero rate":      func(c *Config) { c.Rate = 0 },
		"zero duration":  func(c *Config) { c.Duration = 0 },
		"negative stale": func(c *Config) { c.StaleE = -1 },
		"bad capacity":   func(c *Config) { c.CapacityMax = c.CapacityMin - 1 },
		"zero capacity":  func(c *Config) { c.CapacityMin = 0 },
		"zero window":    func(c *Config) { c.AlphaWindow = 0 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig(AlgBasic, 100, 1)
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}

func TestSessionResourcesPlacement(t *testing.T) {
	sh := sessionShape{domain: 2, service: 4}
	binding, resources := sessionResources(sh)
	// The paper's worked example: client in D2 requesting S4 -> server
	// component on H4, proxy on H1.
	if binding[workload.CompServer][workload.ResCPU] != "cpu@H4" {
		t.Fatalf("server binding = %v", binding[workload.CompServer])
	}
	if binding[workload.CompProxy][workload.ResCPU] != "cpu@H1" {
		t.Fatalf("proxy binding = %v", binding[workload.CompProxy])
	}
	if binding[workload.CompProxy][workload.ResNet] != "net:H4->H1" {
		t.Fatalf("proxy net binding = %v", binding[workload.CompProxy])
	}
	if binding[workload.CompClient][workload.ResNet] != "net:H1->D2" {
		t.Fatalf("client net binding = %v", binding[workload.CompClient])
	}
	if len(resources) != 4 {
		t.Fatalf("resources = %v", resources)
	}
}

func TestDrawSessionNeverPicksLocalService(t *testing.T) {
	cfg := DefaultConfig(AlgBasic, 100, 5)
	rng := newTestRNG(5)
	env, err := buildEnvironment(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		sh := env.drawSession(cfg, rng)
		if sh.service == topo.ProxyServerFor(sh.domain) {
			t.Fatalf("session from domain %d picked excluded service S%d", sh.domain, sh.service)
		}
		if sh.domain < 1 || sh.domain > 8 || sh.service < 1 || sh.service > 4 {
			t.Fatalf("out-of-range session %+v", sh)
		}
		if sh.long && (sh.duration <= 60 || sh.duration > 600) {
			t.Fatalf("long duration %v out of (60,600]", sh.duration)
		}
		if !sh.long && (sh.duration < 20 || sh.duration > 60) {
			t.Fatalf("short duration %v out of [20,60]", sh.duration)
		}
		if sh.fat && sh.variant == 0 {
			t.Fatal("fat session with normal variant")
		}
		if !sh.fat && sh.variant != 0 {
			t.Fatal("normal session with fat variant")
		}
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := newScheduler()
	s.at(5, evRelease, &liveSession{})
	s.at(1, evArrival, nil)
	s.at(5, evArrival, nil) // same time: FIFO by sequence
	var kinds []eventKind
	var times []broker.Time
	for {
		ev, ok := s.next()
		if !ok {
			break
		}
		kinds = append(kinds, ev.kind)
		times = append(times, ev.at)
	}
	if len(kinds) != 3 || times[0] != 1 || times[1] != 5 || times[2] != 5 {
		t.Fatalf("order = %v %v", kinds, times)
	}
	if kinds[1] != evRelease || kinds[2] != evArrival {
		t.Fatalf("same-time ties must be FIFO: %v", kinds)
	}
}

func TestMakePlannerUnknown(t *testing.T) {
	cfg := DefaultConfig(AlgBasic, 100, 1)
	cfg.Algorithm = "nope"
	if _, err := makePlanner(cfg, newTestRNG(1)); err == nil {
		t.Fatal("unknown planner accepted")
	}
}

// newTestRNG builds a seeded RNG for tests.
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestTracerReceivesLifecycle(t *testing.T) {
	cfg := quickConfig(AlgBasic, 120)
	counter := &kindTally{}
	ring := trace.NewRing(32)
	cfg.Tracer = trace.Multi{counter, ring}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got := counter.n[trace.Arrival]; got != m.Overall.Attempts {
		t.Fatalf("arrivals traced = %d, sessions = %d", got, m.Overall.Attempts)
	}
	if got := counter.n[trace.Reserved]; got != m.Overall.Successes {
		t.Fatalf("reserved traced = %d, successes = %d", got, m.Overall.Successes)
	}
	if got := counter.n[trace.PlanFailed]; got != m.PlanFailures {
		t.Fatalf("plan failures traced = %d, metrics = %d", got, m.PlanFailures)
	}
	// Everything reserved is eventually released (the run drains).
	if got := counter.n[trace.Released]; got != m.Overall.Successes {
		t.Fatalf("released traced = %d, successes = %d", got, m.Overall.Successes)
	}
	if ring.Len() == 0 {
		t.Fatal("ring received nothing")
	}
	for _, ev := range ring.Events() {
		if ev.Session == 0 || ev.Service == "" || ev.Class == "" {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

func TestTracerJSONLEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	jsonl := trace.NewJSONL(&buf)
	cfg := quickConfig(AlgBasic, 60)
	cfg.Duration = 300
	cfg.Tracer = jsonl
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 100 {
		t.Fatalf("only %d JSONL lines", len(events))
	}
	if events[0].Kind != trace.Arrival || events[0].Session != 1 {
		t.Fatalf("first event = %+v, want session 1's arrival", events[0])
	}
}

func TestRuntimeModeMatchesDirect(t *testing.T) {
	// Routing every session through the QoSProxy protocol must yield
	// exactly the same results as the direct broker path: the runtime is
	// a faithful implementation, not an approximation.
	for _, alg := range []Algorithm{AlgBasic, AlgTradeoff, AlgRandom} {
		direct := quickConfig(alg, 150)
		viaRuntime := direct
		viaRuntime.UseRuntime = true

		a, err := Run(direct)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(viaRuntime)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics.Overall != b.Metrics.Overall {
			t.Fatalf("%s: direct %+v != runtime %+v", alg, a.Metrics.Overall, b.Metrics.Overall)
		}
		for _, c := range stats.Classes() {
			if *a.Metrics.Class(c) != *b.Metrics.Class(c) {
				t.Fatalf("%s class %s: direct %+v != runtime %+v",
					alg, c, a.Metrics.Class(c), b.Metrics.Class(c))
			}
		}
		for fam, h := range a.Metrics.ByFamily {
			h2 := b.Metrics.ByFamily[fam]
			if h2 == nil || h.Total != h2.Total {
				t.Fatalf("%s family %s histograms differ", alg, fam)
			}
			for p, n := range h.Counts {
				if h2.Counts[p] != n {
					t.Fatalf("%s path %s: %d vs %d", alg, p, n, h2.Counts[p])
				}
			}
		}
		// Runtime mode drains clean too.
		for _, br := range b.Pool.LocalBrokers() {
			if br.Reservations() != 0 {
				t.Fatalf("%s: %s leaked", alg, br.Resource())
			}
		}
	}
}

func TestRuntimeModeValidation(t *testing.T) {
	cfg := quickConfig(AlgBasic, 100)
	cfg.UseRuntime = true
	cfg.StaleE = 2
	if err := cfg.validate(); err == nil {
		t.Fatal("UseRuntime with staleness accepted")
	}
	cfg.StaleE = 0
	cfg.Contention = "headroom"
	if err := cfg.validate(); err == nil {
		t.Fatal("UseRuntime with non-ratio contention accepted")
	}
}

func TestPerServiceMetrics(t *testing.T) {
	res, err := Run(quickConfig(AlgBasic, 150))
	if err != nil {
		t.Fatal(err)
	}
	by := res.Metrics.ByService
	if len(by) != 4 {
		t.Fatalf("services observed = %d, want 4", len(by))
	}
	total := 0
	for i := 1; i <= 4; i++ {
		name := "S" + string(rune('0'+i))
		c := by[name]
		if c == nil || c.Attempts == 0 {
			t.Fatalf("service %s never requested", name)
		}
		total += c.Attempts
	}
	if total != res.Metrics.Overall.Attempts {
		t.Fatalf("per-service attempts %d != overall %d", total, res.Metrics.Overall.Attempts)
	}
}

func TestPopularityRedrawChangesMix(t *testing.T) {
	cfg := DefaultConfig(AlgBasic, 100, 21)
	rng := newTestRNG(21)
	env, err := buildEnvironment(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := env.popularity
	env.redrawPopularity(rng)
	after := env.popularity
	if before == after {
		t.Fatal("popularity redraw produced identical weights")
	}
	for _, w := range after {
		if w < 0.1 || w > 1.0 {
			t.Fatalf("weight %v out of [0.1, 1.0]", w)
		}
	}
}

func TestTimelineAttachedToRun(t *testing.T) {
	cfg := quickConfig(AlgBasic, 120)
	cfg.TimelineWindow = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Metrics.Timeline
	if ts == nil || ts.Len() < 3 {
		t.Fatalf("timeline = %v", ts)
	}
	total := 0
	for i := 0; i < ts.Len(); i++ {
		_, _, c := ts.Window(i)
		total += c.Attempts
	}
	if total != res.Metrics.Overall.Attempts {
		t.Fatalf("timeline attempts %d != overall %d", total, res.Metrics.Overall.Attempts)
	}
}
