// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (section 5), plus micro-benchmarks of the runtime algorithm
// (the paper argues O(K·Q²) is cheap enough for runtime execution,
// section 4.2) and ablation benches for the design choices DESIGN.md
// calls out.
//
// The table/figure benches run the same drivers as cmd/experiments on a
// shortened horizon (3600 TUs instead of 10800) so the whole suite stays
// minutes-scale; they report the headline experiment metrics (success
// rates, QoS levels) through b.ReportMetric so regressions in the
// *result shape*, not just speed, are visible. Run cmd/experiments for
// full-length paper-parameter reproductions.
package qosres_test

import (
	"fmt"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/core"
	"qosres/internal/experiments"
	"qosres/internal/qrg"
	"qosres/internal/sim"
	"qosres/internal/svc"
	"qosres/internal/workload"
)

// benchOpts shortens the horizon for benchmark iterations.
func benchOpts() experiments.Opts {
	return experiments.Opts{Seed: 1, Duration: 3600}
}

// BenchmarkFig11 regenerates figure 11 (overall success rate and average
// QoS level vs. arrival rate, basic/tradeoff/random).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFig11(b, rows)
		}
	}
}

func reportFig11(b *testing.B, rows []experiments.Fig11Row) {
	for _, r := range rows {
		if r.Rate == 180 {
			b.ReportMetric(100*r.SuccessRate, fmt.Sprintf("succ@180_%s_%%", r.Algorithm))
			b.ReportMetric(r.AvgQoS, fmt.Sprintf("qos@180_%s", r.Algorithm))
		}
	}
}

// BenchmarkTable1Table2 regenerates tables 1-2 (selected reservation
// paths and their percentages at 80 sessions per 60 TUs).
func BenchmarkTable1Table2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Tables12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(tabs.Table1)), "paths_table1")
			b.ReportMetric(float64(len(tabs.Table2)), "paths_table2")
			b.ReportMetric(float64(tabs.BottleneckCoverage["basic"]), "bottleneck_resources")
		}
	}
}

// BenchmarkTable3 regenerates table 3 (per-class success rate / QoS for
// basic at rates 60/100/180).
func BenchmarkTable3(b *testing.B) {
	benchTable34(b, sim.AlgBasic)
}

// BenchmarkTable4 regenerates table 4 (same for tradeoff).
func BenchmarkTable4(b *testing.B) {
	benchTable34(b, sim.AlgTradeoff)
}

func benchTable34(b *testing.B, alg sim.Algorithm) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tables34(benchOpts(), alg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Rate == 100 {
					b.ReportMetric(100*r.SuccessRate, fmt.Sprintf("succ@100_%s_%%", r.Class))
				}
			}
		}
	}
}

// BenchmarkFig12Basic regenerates figure 12(a): success rate of basic
// under observation staleness E in {0,1,2,4,8} TUs.
func BenchmarkFig12Basic(b *testing.B) {
	benchFig12(b, sim.AlgBasic)
}

// BenchmarkFig12Tradeoff regenerates figure 12(b).
func BenchmarkFig12Tradeoff(b *testing.B) {
	benchFig12(b, sim.AlgTradeoff)
}

func benchFig12(b *testing.B, alg sim.Algorithm) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchOpts(), alg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Rate == 180 && r.Algorithm == alg && (r.StaleE == 0 || r.StaleE == 8) {
					b.ReportMetric(100*r.SuccessRate, fmt.Sprintf("succ@180_E%g_%%", float64(r.StaleE)))
				}
			}
		}
	}
}

// BenchmarkFig13 regenerates figure 13 (figure 11 under requirement
// diversity compressed to 3:1).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFig11(b, rows)
		}
	}
}

// --- Micro-benchmarks of the runtime algorithm ------------------------

func videoGraph(b *testing.B) *qrg.Graph {
	b.Helper()
	g, err := qrg.Build(workload.VideoService(), workload.VideoBinding(), workload.VideoSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkQRGBuildVideo measures QRG construction for the figure-4
// three-component service: the per-snapshot Instantiate of a template
// compiled once, as every admission runs it.
func BenchmarkQRGBuildVideo(b *testing.B) {
	tpl, err := qrg.Compile(workload.VideoService(), workload.VideoBinding())
	if err != nil {
		b.Fatal(err)
	}
	snap := workload.VideoSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := tpl.Instantiate(snap)
		if err != nil {
			b.Fatal(err)
		}
		tpl.Recycle(g)
	}
}

// BenchmarkPlanPath measures the full per-session planning step — QRG
// instantiation from a compiled template, planner, Recycle — on the
// figure-9 S1 chain (max-plus Dijkstra) and the fan-in DAG (two-pass
// heuristic).
func BenchmarkPlanPath(b *testing.B) {
	shapes := []struct {
		name    string
		planner core.Planner
		fixture func() (*svc.Service, svc.Binding, *broker.Snapshot)
	}{
		{"chain", core.Basic{}, experiments.PlanBenchChain},
		{"dag", core.TwoPass{}, experiments.PlanBenchDag},
	}
	for _, sh := range shapes {
		service, binding, snap := sh.fixture()
		b.Run(sh.name, func(b *testing.B) {
			benchPlan(b, service, binding, snap, sh.planner)
		})
	}
}

// benchPlan compiles the pair once, then times Instantiate, the planner
// and Recycle per iteration.
func benchPlan(b *testing.B, service *svc.Service, binding svc.Binding, snap *broker.Snapshot, planner core.Planner) {
	tpl, err := qrg.Compile(service, binding)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := tpl.Instantiate(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := planner.Plan(g); err != nil {
			b.Fatal(err)
		}
		tpl.Recycle(g)
	}
}

// BenchmarkPlanBasic measures the max-plus Dijkstra planner on the
// figure-4 QRG.
func BenchmarkPlanBasic(b *testing.B) {
	g := videoGraph(b)
	p := core.Basic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanTradeoff measures the tradeoff planner.
func BenchmarkPlanTradeoff(b *testing.B) {
	g := videoGraph(b)
	p := core.Tradeoff{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanRandom measures the contention-unaware baseline.
func BenchmarkPlanRandom(b *testing.B) {
	g := videoGraph(b)
	p := core.NewRandom(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanTwoPassDAG measures the two-pass heuristic on the
// figure-6 DAG service.
func BenchmarkPlanTwoPassDAG(b *testing.B) {
	g, err := qrg.Build(workload.DagService(), workload.DagBinding(), workload.DagSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	p := core.TwoPass{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExhaustiveDAG measures the exact enumerator on the same
// DAG, the cost the heuristic avoids.
func BenchmarkPlanExhaustiveDAG(b *testing.B) {
	g, err := qrg.Build(workload.DagService(), workload.DagBinding(), workload.DagSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	p := core.Exhaustive{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices in DESIGN.md) -------------------

// BenchmarkAblationAlphaWindow sweeps the tradeoff policy's averaging
// window T (the paper fixes T = 3 TUs) and reports the success rate.
func BenchmarkAblationAlphaWindow(b *testing.B) {
	for _, window := range []broker.Time{1, 3, 10, 30} {
		b.Run(fmt.Sprintf("T=%g", float64(window)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.AlgTradeoff, 180, 1)
				cfg.Duration = 3600
				cfg.AlphaWindow = window
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*res.Metrics.Overall.SuccessRate(), "succ_%")
					b.ReportMetric(res.Metrics.Overall.AvgQoS(), "avgQoS")
				}
			}
		})
	}
}

// BenchmarkAblationStaleness sweeps the observation age E for basic,
// isolating the atomic-observation assumption of section 5.2.4.
func BenchmarkAblationStaleness(b *testing.B) {
	for _, e := range []broker.Time{0, 2, 8, 32} {
		b.Run(fmt.Sprintf("E=%g", float64(e)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.AlgBasic, 180, 1)
				cfg.Duration = 3600
				cfg.StaleE = e
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*res.Metrics.Overall.SuccessRate(), "succ_%")
					b.ReportMetric(float64(res.Metrics.ReserveFailures), "reserve_failures")
				}
			}
		})
	}
}

// BenchmarkAblationDiversity sweeps the requirement diversity
// compression (figure 13 generalized): base (0 = uncompressed), the
// paper's 3:1, and fully flat 1:1.
func BenchmarkAblationDiversity(b *testing.B) {
	for _, ratio := range []float64{0, 3, 1} {
		name := "base"
		if ratio > 0 {
			name = fmt.Sprintf("%g:1", ratio)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.AlgBasic, 180, 1)
				cfg.Duration = 3600
				cfg.Workload.DiversityRatio = ratio
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*res.Metrics.Overall.SuccessRate(), "succ_%")
				}
			}
		})
	}
}

// BenchmarkAblationContention sweeps the per-resource contention index
// definition ψ (the paper's footnote 2: the ratio is one of several
// admissible definitions) and reports the resulting success rate.
func BenchmarkAblationContention(b *testing.B) {
	for _, name := range []string{"ratio", "headroom", "log"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.AlgBasic, 180, 1)
				cfg.Duration = 3600
				cfg.Contention = name
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*res.Metrics.Overall.SuccessRate(), "succ_%")
					b.ReportMetric(res.Metrics.Overall.AvgQoS(), "avgQoS")
				}
			}
		})
	}
}

// BenchmarkHeuristicQuality runs the randomized two-pass-vs-exact
// quality study (the section 4.3.2 limitations, quantified) and reports
// the limitation rates.
func BenchmarkHeuristicQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.HeuristicQuality(1, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.HeuristicOnlyFailures), "limitation1_fails")
			b.ReportMetric(float64(res.PsiGaps), "limitation2_gaps")
			b.ReportMetric(res.MeanGap, "mean_psi_gap")
		}
	}
}

// BenchmarkAblationTieBreak compares the basic algorithm with and
// without the section 4.1.2 predecessor tie-break rule.
func BenchmarkAblationTieBreak(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "paper-rule"
		if disable {
			name = "no-tiebreak"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.AlgBasic, 180, 1)
				cfg.Duration = 3600
				cfg.NoTieBreak = disable
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*res.Metrics.Overall.SuccessRate(), "succ_%")
				}
			}
		})
	}
}

// BenchmarkPlanScaling exercises the section 4.2 complexity claim
// O(K·Q²) on dense synthetic chains: instantiate the compiled QRG and run
// the basic planner while K (components) and Q (levels per component)
// grow. The claim is about this per-snapshot work; compilation happens
// once per (service, binding) pair, outside the timed loop.
func BenchmarkPlanScaling(b *testing.B) {
	for _, kq := range [][2]int{{3, 8}, {3, 16}, {3, 32}, {3, 64}, {6, 16}, {12, 16}} {
		k, q := kq[0], kq[1]
		b.Run(fmt.Sprintf("K=%d_Q=%d", k, q), func(b *testing.B) {
			service, binding, snap := workload.SyntheticChain(k, q)
			benchPlan(b, service, binding, snap, core.Basic{})
		})
	}
}
