package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); !near(got, c.want, 1e-12) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !sort.Float64sAreSorted([]float64{1, 2}) || xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// syntheticWindows makes n windows of 200 decisions at 1 ms each, 100 ms
// long; every slowEvery-th window is a burst from a noisy neighbour:
// three times as long, with every latency tripled.
func syntheticWindows(n, slowEvery int) []window {
	ws := make([]window, n)
	for i := range ws {
		factor := 1.0
		if slowEvery > 0 && i%slowEvery == 0 {
			factor = 3
		}
		lat := make([]float64, 200)
		for j := range lat {
			// A fixed in-window shape: p50 1.0 ms, p95 2.0 ms.
			lat[j] = factor
			if j >= 190 {
				lat[j] = 2 * factor
			}
		}
		ws[i] = window{
			dur:       time.Duration(factor * float64(100*time.Millisecond)),
			decisions: 200,
			latMs:     lat,
			admitted:  180,
			rankSum:   450,
		}
	}
	return ws
}

func TestQuietEstimateIgnoresSlowBursts(t *testing.T) {
	clean := quietEstimate(syntheticWindows(120, 0))
	// A third of the windows disturbed: the whole-run mean rate drops by
	// 40%, the quiet-window reading must not move.
	noisy := syntheticWindows(120, 3)
	got := quietEstimate(noisy)
	if got.windows != 120 || got.samplesPerWindow != 200 {
		t.Fatalf("windows %d, samples %v", got.windows, got.samplesPerWindow)
	}
	if !near(got.perSec, clean.perSec, 1e-9) || !near(got.perSec, 2000, 1e-9) {
		t.Errorf("quiet rate %v, clean %v, want 2000", got.perSec, clean.perSec)
	}
	if !near(got.p50Ms, 1, 1e-9) || !near(got.p95Ms, clean.p95Ms, 1e-9) {
		t.Errorf("quiet p50 %v p95 %v, clean p95 %v", got.p50Ms, got.p95Ms, clean.p95Ms)
	}
	var total time.Duration
	for _, w := range noisy {
		total += w.dur
	}
	mean := float64(120*200) / total.Seconds()
	if mean > 0.7*got.perSec {
		t.Errorf("test is not testing anything: whole-run mean %v is close to the quiet rate %v", mean, got.perSec)
	}
	// The spread is the distance of the median window from the quiet
	// ones: none when every window is alike, large when most are disturbed.
	bad := quietEstimate(syntheticWindows(120, 1))
	if bad.quietSpread != 0 {
		t.Errorf("uniformly slow run has spread %v, want 0", bad.quietSpread)
	}
	most := syntheticWindows(120, 0)
	for i := range most {
		if i%4 != 0 {
			most[i].dur *= 3
		}
	}
	if s := quietEstimate(most).quietSpread; s < 0.5 {
		t.Errorf("run with 3/4 of its windows disturbed has spread %v, want a large one", s)
	}
}

func TestQuietEstimateSkipsEmptyWindows(t *testing.T) {
	ws := append(syntheticWindows(10, 0), window{})
	if got := quietEstimate(ws).windows; got != 10 {
		t.Errorf("windows = %d, want 10", got)
	}
	if got := quietEstimate(nil); got.windows != 0 || got.perSec != 0 {
		t.Errorf("estimate of nothing = %+v", got)
	}
}

func TestOutcomesTakesAFixedPrefix(t *testing.T) {
	ws := syntheticWindows(130, 0)
	d, a, r := outcomes(ws, 100)
	if d != 20000 || a != 18000 || r != 45000 {
		t.Errorf("prefix outcomes = %d %d %d", d, a, r)
	}
	if d, _, _ := outcomes(ws[:7], 100); d != 1400 {
		t.Errorf("short run outcomes = %d, want 1400", d)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1, 1e-12) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.8, 3.05, 3.2], n=4) == [2.9, 3.05, 3.2]
	if got := quartileSpread([]float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.05, 3.2}); !near(got, 0.3/3.05, 1e-9) {
		t.Errorf("spread = %v, want %v", got, 0.3/3.05)
	}
	if quartileSpread([]float64{4}) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("lower", 10, 11); !near(got, 0.1, 1e-12) {
		t.Errorf("lower-is-better 10→11 = %v", got)
	}
	if got := worsening("higher", 10, 9); !near(got, 0.1, 1e-12) {
		t.Errorf("higher-is-better 10→9 = %v", got)
	}
	if worsening("higher", 10, 12) >= 0 {
		t.Error("an improvement must be negative")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},     // overlaps a
		{ID: 4, Name: "late", Start: 90, End: 120, Parent: 1}, // runs past its parent
		{ID: 5, Name: "grandchild", Start: 15, End: 20, Parent: 2},
		{ID: 6, Name: "inside", Start: 35, End: 38, Parent: 1}, // wholly covered already
	}
	self := selfTimes(spans)
	// Children cover 10..60 once and 90..100 of the parent: 60 of 100.
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	dur, selfMed := spanMedians(append(spans, span{ID: 7, Name: "open", Start: 5}))
	if dur["parent"] != 0.1 || selfMed["parent"] != 0.04 {
		t.Errorf("parent median dur %v self %v (µs)", dur["parent"], selfMed["parent"])
	}
	if _, ok := dur["open"]; ok {
		t.Error("a span that never ended must not be reported")
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.start("x", 0, 1); id != 0 {
		t.Errorf("nil recorder start = %d", id)
	}
	none.end(0)
	if none.snapshot() != nil {
		t.Error("nil recorder has spans")
	}

	r := newRecorder()
	root := r.start("cycle", 0, 7)
	r.scope = "pass/"
	child := r.start("call", root, 7)
	r.end(child)
	r.scope = ""
	r.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Name != "cycle" || got[1].Name != "pass/call" ||
		got[1].Parent != got[0].ID || got[1].Session != 7 || got[0].End < got[1].End {
		t.Errorf("round trip = %+v", got)
	}
}

func TestContendedScheduleRepeats(t *testing.T) {
	draw := func(seed int64, n int) []step {
		s := newScheduler(seed, 64)
		out := make([]step, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(42, 5000), draw(42, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, draw(43, 5000)) {
		t.Fatal("two seeds gave the same schedule")
	}
	// Every pass offers each member of the corpus exactly once.
	for pass := 0; pass+64 <= len(a); pass += 64 {
		seen := map[int]bool{}
		for _, st := range a[pass : pass+64] {
			seen[st.offer] = true
		}
		if len(seen) != 64 {
			t.Fatalf("pass at %d visits %d of 64 offers", pass, len(seen))
		}
	}
}

func TestParseMemStats(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "allocs_debug1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMemStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (memStats{Mallocs: 10608, TotalAlloc: 1139128, NumGC: 0}); m != want {
		t.Errorf("memstats = %+v, want %+v", m, want)
	}
	if _, err := parseMemStats([]byte("# Mallocs = 12\n")); err == nil {
		t.Error("a trailer without TotalAlloc and NumGC must be refused")
	}
	if _, err := parseMemStats([]byte("# Mallocs = x\n# TotalAlloc = 1\n# NumGC = 1\n")); err == nil {
		t.Error("a malformed count must be refused")
	}
}

func TestParseSnapshotCounters(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseSnapshotCounters(data)
	if err != nil {
		t.Fatal(err)
	}
	if c["qosres_wal_appends_total"] != 44 || c["qosres_qrg_template_misses_total"] != 3 {
		t.Errorf("counters = %v", c)
	}
	// Labelled series of one counter are summed.
	if c["qosres_session_events_total"] != 5 {
		t.Errorf("session events = %v, want 5", c["qosres_session_events_total"])
	}
	if _, err := parseSnapshotCounters([]byte(`{"gauges":[]}`)); err == nil {
		t.Error("a snapshot without counters must be refused")
	}
}

func TestOfferChecksLevels(t *testing.T) {
	o, err := newOffer("H1", []byte(`{"name":"S1","ranking":["Qp","Qq"],"availability":{"cpu@H1":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !o.hasLevel("Qq") || o.hasLevel("Qz") || o.rankIndex("Qp") != 0 || o.avail["cpu@H1"] != 7 {
		t.Errorf("offer = %+v", o)
	}
	var body struct {
		MainHost string          `json:"mainHost"`
		Session  json.RawMessage `json:"session"`
	}
	if err := json.Unmarshal(o.body, &body); err != nil || body.MainHost != "H1" || len(body.Session) == 0 {
		t.Errorf("request body %s: %v", o.body, err)
	}
	if _, err := newOffer("", []byte(`{"ranking":["Qp"]}`)); err == nil {
		t.Error("an offer without a main host must be refused")
	}
}

// TestBenchmarkFileNamesWhatTheHarnessPrints holds BENCHMARK.json and
// the harness together: same workloads, same metrics, same units.
func TestBenchmarkFileNamesWhatTheHarnessPrints(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness has %v", names, workloadNames)
	}
	endToEnd := map[string]string{
		"setup_s": "s", "sessions_per_sec": "1/s", "establish_p50_ms": "ms", "establish_p95_ms": "ms",
		"success_rate": "ratio", "avg_qos_rank": "rank", "allocs_per_session": "count", "peak_rss_mb": "MB",
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, harness prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for _, m := range bf.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("end-to-end %s has unit %q, harness prints %q", m.Name, m.Unit, endToEnd[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s has bound %v", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, harness prints %d", len(bf.PerLayer), len(layerMetrics))
	}
	declared := map[string]bool{}
	for i, m := range bf.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer #%d is %+v, harness has %+v", i, m, lm)
		}
		declared[m.Name] = true
	}
	for _, row := range append([]string{"qosserved.establish_rt_us"}, budgetRows...) {
		if !declared[row] {
			t.Errorf("budget row %s is not a declared per-layer metric", row)
		}
	}
}

// TestSmokeRealDaemon drives a real qosserved: set-up (1000 sessions),
// one measured window of 200, the drain check, and the crash check of
// the contended workload.
func TestSmokeRealDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qosserved")
	}
	env, err := newRunEnv(5, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	for _, w := range []workload{newServedMix(env, 2), newServedContended(env)} {
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		win, err := w.window(nil)
		if err != nil {
			w.discard()
			t.Fatal(err)
		}
		if win.decisions == 0 || win.admitted == 0 || len(win.latMs) != win.decisions {
			t.Errorf("window = %d decisions, %d admitted, %d latencies", win.decisions, win.admitted, len(win.latMs))
		}
		if m, err := w.mallocs(); err != nil || m == 0 {
			t.Errorf("mallocs = %d, %v", m, err)
		}
		rss, err := w.finish()
		if err != nil {
			t.Error(err)
		}
		if rss <= 0 {
			t.Errorf("peak RSS = %v", rss)
		}
		if _, failed := w.counts(); failed != 0 {
			t.Errorf("%d failed operations", failed)
		}
	}
}
