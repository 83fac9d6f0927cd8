package experiments

import (
	"strings"
	"testing"

	"qosres/internal/sim"
	"qosres/internal/stats"
)

// tinyOpts keeps experiment tests fast while preserving the shapes.
func tinyOpts() Opts { return Opts{Seed: 1, Duration: 900} }

func TestFig11ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := fig11With(tinyOpts(), []float64{90, 180}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(Algorithms) {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(rate float64, alg sim.Algorithm) Fig11Row {
		for _, r := range rows {
			if r.Rate == rate && r.Algorithm == alg {
				return r
			}
		}
		t.Fatalf("missing row %v/%v", rate, alg)
		return Fig11Row{}
	}
	for _, rate := range []float64{90, 180} {
		basic := get(rate, sim.AlgBasic)
		random := get(rate, sim.AlgRandom)
		if basic.SuccessRate <= random.SuccessRate {
			t.Errorf("rate %g: basic (%.3f) must beat random (%.3f)",
				rate, basic.SuccessRate, random.SuccessRate)
		}
	}
	// Load monotonicity: higher arrival rate, lower success.
	if get(180, sim.AlgBasic).SuccessRate >= get(90, sim.AlgBasic).SuccessRate {
		t.Error("success rate should drop with load")
	}
}

func TestPrintFig11Renders(t *testing.T) {
	rows := []Fig11Row{
		{Rate: 60, Algorithm: sim.AlgBasic, SuccessRate: 0.99, AvgQoS: 2.99},
		{Rate: 60, Algorithm: sim.AlgTradeoff, SuccessRate: 0.995, AvgQoS: 2.5},
		{Rate: 60, Algorithm: sim.AlgRandom, SuccessRate: 0.9, AvgQoS: 2.98},
	}
	var b strings.Builder
	PrintFig11(&b, "Figure 11", rows)
	out := b.String()
	for _, want := range []string{"Figure 11 (a)", "Figure 11 (b)", "99.0%", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTables12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tabs, err := Tables12(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs.Table1) < 5 || len(tabs.Table2) < 5 {
		t.Fatalf("path coverage too narrow: %d / %d", len(tabs.Table1), len(tabs.Table2))
	}
	sum := func(rows []PathRow, f func(PathRow) float64) float64 {
		s := 0.0
		for _, r := range rows {
			s += f(r)
		}
		return s
	}
	for _, rows := range [][]PathRow{tabs.Table1, tabs.Table2} {
		if b := sum(rows, func(r PathRow) float64 { return r.Basic }); b < 99 || b > 101 {
			t.Errorf("basic percentages sum to %v", b)
		}
		if tr := sum(rows, func(r PathRow) float64 { return r.Tradeoff }); tr < 99 || tr > 101 {
			t.Errorf("tradeoff percentages sum to %v", tr)
		}
	}
	// Every selected path must be a real figure-10 path: Qa-..-sink.
	for _, r := range append(append([]PathRow{}, tabs.Table1...), tabs.Table2...) {
		if !strings.HasPrefix(r.Path, "Qa-") {
			t.Errorf("path %q does not start at the source", r.Path)
		}
		if strings.Count(r.Path, "-") != 5 {
			t.Errorf("path %q is not a 6-level chain path", r.Path)
		}
	}
	if tabs.BottleneckCoverage["basic"] < 10 {
		t.Errorf("bottleneck coverage = %d", tabs.BottleneckCoverage["basic"])
	}
	var b strings.Builder
	PrintPathTable(&b, "Table 1", tabs.Table1)
	if !strings.Contains(b.String(), "Table 1") || !strings.Contains(b.String(), "%") {
		t.Error("PrintPathTable output malformed")
	}
}

func TestTables34Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Tables34(tinyOpts(), sim.AlgBasic)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(Tables34Rates) {
		t.Fatalf("rows = %d", len(rows))
	}
	var b strings.Builder
	PrintTable34(&b, "Table 3", rows)
	out := b.String()
	for _, want := range []string{"Norm.-short", "Fat-long", "60 ssn.s/60 TUs"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Fig12(tinyOpts(), sim.AlgBasic)
	if err != nil {
		t.Fatal(err)
	}
	// Per rate: len(staleness) basic rows + 1 random row.
	want := len(Fig12Rates) * (len(Fig12Staleness) + 1)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	// At E=0 there must be no reserve failures; at the largest E under
	// load there should be some.
	for _, r := range rows {
		if r.StaleE == 0 && r.Algorithm == sim.AlgBasic && r.ReserveFailures != 0 {
			t.Errorf("E=0 run has %d reserve failures", r.ReserveFailures)
		}
	}
	var b strings.Builder
	PrintFig12(&b, "Figure 12 (a)", rows)
	if !strings.Contains(b.String(), "E=8") || !strings.Contains(b.String(), "random(E=0)") {
		t.Error("PrintFig12 output malformed")
	}
}

func TestOptsConfigDerivation(t *testing.T) {
	o := Opts{Seed: 7, Duration: 1234, Scale: 2.5}
	cfg := o.config(sim.AlgBasic, 100, 5)
	if cfg.Duration != 1234 || cfg.Workload.BaseScale != 2.5 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Seed == 0 {
		t.Fatal("seed not derived")
	}
	other := o.config(sim.AlgBasic, 100, 6)
	if other.Seed == cfg.Seed {
		t.Fatal("salts must change the derived seed")
	}
	def := (Opts{Seed: 1}).config(sim.AlgBasic, 100, 0)
	if def.Duration != 10800 {
		t.Fatalf("default duration = %v", def.Duration)
	}
}

func TestHeuristicQualityStudy(t *testing.T) {
	res, err := HeuristicQuality(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 400 {
		t.Fatalf("trials = %d", res.Trials)
	}
	if res.BothSolved < 50 {
		t.Fatalf("only %d both-solved instances", res.BothSolved)
	}
	// Rank agreement is a correctness invariant, not a statistic.
	if res.RankAgreement != res.BothSolved {
		t.Fatalf("rank agreement %d != both-solved %d", res.RankAgreement, res.BothSolved)
	}
	// The documented limitations exist but stay bounded.
	solvable := res.BothSolved + res.HeuristicOnlyFailures
	if res.HeuristicOnlyFailures > solvable/4 {
		t.Fatalf("limitation 1 rate too high: %d of %d", res.HeuristicOnlyFailures, solvable)
	}
	if res.PsiGaps > res.BothSolved/5 {
		t.Fatalf("limitation 2 rate too high: %d of %d", res.PsiGaps, res.BothSolved)
	}
	var b strings.Builder
	PrintHeuristicQuality(&b, res)
	if !strings.Contains(b.String(), "limitation 1") {
		t.Fatal("print output malformed")
	}
}

func TestHeuristicQualityDeterministic(t *testing.T) {
	a, err := HeuristicQuality(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HeuristicQuality(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestCSVWriters(t *testing.T) {
	var b strings.Builder
	rows := []Fig11Row{{Rate: 60, Algorithm: sim.AlgBasic, SuccessRate: 0.5, AvgQoS: 2.5}}
	if err := WriteFig11CSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rate,algorithm,success_rate,avg_qos") ||
		!strings.Contains(b.String(), "60,basic,0.500000,2.500000") {
		t.Fatalf("fig11 csv = %q", b.String())
	}
	b.Reset()
	if err := WritePathTableCSV(&b, []PathRow{{Path: "Qa-Qb", Basic: 10, Tradeoff: 20}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Qa-Qb,10.0000,20.0000") {
		t.Fatalf("path csv = %q", b.String())
	}
	b.Reset()
	if err := WriteTable34CSV(&b, []ClassRow{{Class: stats.FatShort, Rate: 100, SuccessRate: 0.7, AvgQoS: 2.9}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fat-short,100,0.700000,2.900000") {
		t.Fatalf("table34 csv = %q", b.String())
	}
	b.Reset()
	if err := WriteFig12CSV(&b, []Fig12Row{{Algorithm: sim.AlgBasic, Rate: 60, StaleE: 2, SuccessRate: 0.8, ReserveFailures: 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "basic,60,2,0.800000,5") {
		t.Fatalf("fig12 csv = %q", b.String())
	}
}

func TestPlotHelpersRender(t *testing.T) {
	rows := []Fig11Row{
		{Rate: 60, Algorithm: sim.AlgBasic, SuccessRate: 0.99, AvgQoS: 2.99},
		{Rate: 120, Algorithm: sim.AlgBasic, SuccessRate: 0.8, AvgQoS: 2.9},
		{Rate: 60, Algorithm: sim.AlgTradeoff, SuccessRate: 0.995, AvgQoS: 2.5},
		{Rate: 120, Algorithm: sim.AlgTradeoff, SuccessRate: 0.85, AvgQoS: 2.6},
		{Rate: 60, Algorithm: sim.AlgRandom, SuccessRate: 0.9, AvgQoS: 2.98},
		{Rate: 120, Algorithm: sim.AlgRandom, SuccessRate: 0.7, AvgQoS: 2.95},
	}
	var b strings.Builder
	PlotFig11(&b, "panel a", "a", rows)
	if !strings.Contains(b.String(), "panel a") || !strings.Contains(b.String(), "b=basic") {
		t.Fatalf("PlotFig11 a = %q", b.String())
	}
	b.Reset()
	PlotFig11(&b, "panel b", "b", rows)
	if !strings.Contains(b.String(), "t=tradeoff") {
		t.Fatalf("PlotFig11 b = %q", b.String())
	}
	b.Reset()
	fig12 := []Fig12Row{
		{Algorithm: sim.AlgBasic, Rate: 60, StaleE: 0, SuccessRate: 0.99},
		{Algorithm: sim.AlgBasic, Rate: 60, StaleE: 8, SuccessRate: 0.95},
		{Algorithm: sim.AlgRandom, Rate: 60, SuccessRate: 0.85},
	}
	PlotFig12(&b, "fig12", fig12)
	out := b.String()
	if !strings.Contains(out, "E=8") || !strings.Contains(out, "random") {
		t.Fatalf("PlotFig12 = %q", out)
	}
}
