// Package experiments regenerates every table and figure of the paper's
// performance study (section 5). Each driver returns structured results
// and can render them in the paper's row format; cmd/experiments and the
// repository's benchmark harness are thin wrappers around these drivers.
//
// Per DESIGN.md, the reproduction target is the shape of each result —
// orderings, gaps, crossovers — not the absolute numbers, since the
// figure-10 requirement tables had to be reconstructed (see
// EXPERIMENTS.md for paper-vs-measured values).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"qosres/internal/broker"
	"qosres/internal/sim"
	"qosres/internal/stats"
)

// Opts parameterizes an experiment run. The zero value uses the paper's
// parameters; Duration and Seeds may be reduced for quick runs.
type Opts struct {
	// Seed is the base random seed (runs derive per-configuration seeds
	// from it deterministically).
	Seed int64
	// Duration overrides the simulated time (default 10800 TUs).
	Duration broker.Time
	// Scale overrides the workload base scale (default
	// sim.DefaultBaseScale).
	Scale float64
}

func (o Opts) config(alg sim.Algorithm, rate float64, salt int64) sim.Config {
	cfg := sim.DefaultConfig(alg, rate, o.Seed*1000003+salt)
	if o.Duration > 0 {
		cfg.Duration = o.Duration
	}
	if o.Scale > 0 {
		cfg.Workload.BaseScale = o.Scale
	}
	return cfg
}

// Fig11Rates is the arrival-rate sweep of figure 11 (sessions per 60
// TUs, "from 60 sessions per 60 TUs to 240 sessions per 60 TUs").
var Fig11Rates = []float64{60, 90, 120, 150, 180, 210, 240}

// Algorithms is the comparison set of section 5.
var Algorithms = []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff, sim.AlgRandom}

// Fig11Row is one point of figure 11: a (rate, algorithm) pair with the
// overall reservation success rate (a) and the average end-to-end QoS
// level of successful sessions (b).
type Fig11Row struct {
	Rate        float64
	Algorithm   sim.Algorithm
	SuccessRate float64
	AvgQoS      float64
}

// Fig11 regenerates figure 11 (both panels) over the rate sweep.
func Fig11(opts Opts) ([]Fig11Row, error) {
	return fig11With(opts, Fig11Rates, 0)
}

// fig11With is shared by figures 11 and 13 (which is figure 11 under
// compressed requirement diversity).
func fig11With(opts Opts, rates []float64, diversity float64) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, rate := range rates {
		for _, alg := range Algorithms {
			cfg := opts.config(alg, rate, int64(rate))
			cfg.Workload.DiversityRatio = diversity
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig11Row{
				Rate:        rate,
				Algorithm:   alg,
				SuccessRate: res.Metrics.Overall.SuccessRate(),
				AvgQoS:      res.Metrics.Overall.AvgQoS(),
			})
		}
	}
	return rows, nil
}

// PlotFig11 renders one panel of figure 11 as an ASCII chart: panel "a"
// (success rate) or "b" (average QoS level).
func PlotFig11(w io.Writer, title, panel string, rows []Fig11Row) {
	plot := &stats.Plot{Title: title, YMin: mathNaN(), YMax: mathNaN()}
	for _, alg := range Algorithms {
		s := stats.Series{Name: string(alg), Points: map[float64]float64{}}
		for _, r := range rows {
			if r.Algorithm != alg {
				continue
			}
			if panel == "b" {
				s.Points[r.Rate] = r.AvgQoS
			} else {
				s.Points[r.Rate] = 100 * r.SuccessRate
			}
		}
		plot.Series = append(plot.Series, s)
	}
	fmt.Fprint(w, plot.String())
}

// PlotFig12 renders one panel of figure 12 as an ASCII chart: success
// rate vs. rate, one series per staleness value plus the random
// baseline.
func PlotFig12(w io.Writer, title string, rows []Fig12Row) {
	plot := &stats.Plot{Title: title, YMin: mathNaN(), YMax: mathNaN()}
	for _, e := range Fig12Staleness {
		s := stats.Series{Name: fmt.Sprintf("E=%g", float64(e)), Points: map[float64]float64{}}
		for _, r := range rows {
			if r.Algorithm != sim.AlgRandom && r.StaleE == e {
				s.Points[r.Rate] = 100 * r.SuccessRate
			}
		}
		plot.Series = append(plot.Series, s)
	}
	s := stats.Series{Name: "random", Points: map[float64]float64{}}
	for _, r := range rows {
		if r.Algorithm == sim.AlgRandom {
			s.Points[r.Rate] = 100 * r.SuccessRate
		}
	}
	plot.Series = append(plot.Series, s)
	fmt.Fprint(w, plot.String())
}

func mathNaN() float64 { return math.NaN() }

// PrintFig11 renders the two panels as aligned tables.
func PrintFig11(w io.Writer, title string, rows []Fig11Row) {
	byRate := map[float64]map[sim.Algorithm]Fig11Row{}
	var rates []float64
	for _, r := range rows {
		if byRate[r.Rate] == nil {
			byRate[r.Rate] = map[sim.Algorithm]Fig11Row{}
			rates = append(rates, r.Rate)
		}
		byRate[r.Rate][r.Algorithm] = r
	}
	sort.Float64s(rates)

	succ := &stats.Table{Header: []string{"rate", "basic", "tradeoff", "random"}}
	qos := &stats.Table{Header: []string{"rate", "basic", "tradeoff", "random"}}
	for _, rate := range rates {
		m := byRate[rate]
		succ.AddRow(fmt.Sprintf("%g", rate),
			fmt.Sprintf("%.1f%%", 100*m[sim.AlgBasic].SuccessRate),
			fmt.Sprintf("%.1f%%", 100*m[sim.AlgTradeoff].SuccessRate),
			fmt.Sprintf("%.1f%%", 100*m[sim.AlgRandom].SuccessRate))
		qos.AddRow(fmt.Sprintf("%g", rate),
			fmt.Sprintf("%.2f", m[sim.AlgBasic].AvgQoS),
			fmt.Sprintf("%.2f", m[sim.AlgTradeoff].AvgQoS),
			fmt.Sprintf("%.2f", m[sim.AlgRandom].AvgQoS))
	}
	fmt.Fprintf(w, "%s (a): overall reservation success rate\n%s\n", title, succ)
	fmt.Fprintf(w, "%s (b): average end-to-end QoS level\n%s", title, qos)
}

// Tables12Rate is the arrival rate of the path-selection study
// (tables 1-2): 80 sessions per 60 TUs.
const Tables12Rate = 80.0

// PathRow is one row of table 1 or 2: a selected path and its selection
// percentage under basic and tradeoff.
type PathRow struct {
	Path     string
	Basic    float64
	Tradeoff float64
}

// PathTables holds the regenerated tables 1 and 2, plus the
// bottleneck-coverage observation of section 5.2.2.
type PathTables struct {
	Table1, Table2 []PathRow
	// BottleneckCoverage maps algorithm name to the number of distinct
	// resources observed as a plan bottleneck during its run.
	BottleneckCoverage map[string]int
}

// Tables12 regenerates tables 1 and 2: the selected end-to-end
// reservation paths and their percentages in the QRGs of figures 10(a)
// and (b), under basic and tradeoff at 80 sessions per 60 TUs.
func Tables12(opts Opts) (*PathTables, error) {
	out := &PathTables{BottleneckCoverage: map[string]int{}}
	hist := map[sim.Algorithm]map[string]*stats.PathHistogram{}
	for _, alg := range []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff} {
		res, err := sim.Run(opts.config(alg, Tables12Rate, 80))
		if err != nil {
			return nil, err
		}
		hist[alg] = res.Metrics.ByFamily
		out.BottleneckCoverage[string(alg)] = len(res.Metrics.BottleneckCounts)
	}
	merge := func(family string) []PathRow {
		seen := map[string]bool{}
		var paths []string
		for _, alg := range []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff} {
			if h := hist[alg][family]; h != nil {
				for _, p := range h.Paths() {
					if !seen[p] {
						seen[p] = true
						paths = append(paths, p)
					}
				}
			}
		}
		sort.Strings(paths)
		var rows []PathRow
		for _, p := range paths {
			row := PathRow{Path: p}
			if h := hist[sim.AlgBasic][family]; h != nil {
				row.Basic = h.Percent(p)
			}
			if h := hist[sim.AlgTradeoff][family]; h != nil {
				row.Tradeoff = h.Percent(p)
			}
			rows = append(rows, row)
		}
		return rows
	}
	out.Table1 = merge("fig10a")
	out.Table2 = merge("fig10b")
	return out, nil
}

// PrintPathTable renders one of tables 1-2.
func PrintPathTable(w io.Writer, title string, rows []PathRow) {
	t := &stats.Table{Header: []string{"selected path", "basic", "tradeoff"}}
	for _, r := range rows {
		t.AddRow(r.Path, fmt.Sprintf("%.1f%%", r.Basic), fmt.Sprintf("%.1f%%", r.Tradeoff))
	}
	fmt.Fprintf(w, "%s\n%s", title, t)
}

// Tables34Rates is the rate set of tables 3-4.
var Tables34Rates = []float64{60, 100, 180}

// ClassRow is one cell group of table 3 or 4: a session class at one
// arrival rate.
type ClassRow struct {
	Class       stats.Class
	Rate        float64
	SuccessRate float64
	AvgQoS      float64
}

// Tables34 regenerates table 3 (alg = basic) or table 4 (alg =
// tradeoff): per-class success rates and average QoS levels.
func Tables34(opts Opts, alg sim.Algorithm) ([]ClassRow, error) {
	var rows []ClassRow
	for _, rate := range Tables34Rates {
		res, err := sim.Run(opts.config(alg, rate, 34000+int64(rate)))
		if err != nil {
			return nil, err
		}
		for _, c := range stats.Classes() {
			cnt := res.Metrics.Class(c)
			rows = append(rows, ClassRow{
				Class:       c,
				Rate:        rate,
				SuccessRate: cnt.SuccessRate(),
				AvgQoS:      cnt.AvgQoS(),
			})
		}
	}
	return rows, nil
}

// PrintTable34 renders table 3 or 4 in the paper's layout (classes as
// rows, rates as columns, cells "success%/avgQoS").
func PrintTable34(w io.Writer, title string, rows []ClassRow) {
	header := []string{"class/gen. rate"}
	for _, r := range Tables34Rates {
		header = append(header, fmt.Sprintf("%g ssn.s/60 TUs", r))
	}
	t := &stats.Table{Header: header}
	for _, c := range stats.Classes() {
		cells := []string{c.String()}
		for _, rate := range Tables34Rates {
			for _, r := range rows {
				if r.Class == c && r.Rate == rate {
					cells = append(cells, fmt.Sprintf("%.1f%%/%.2f", 100*r.SuccessRate, r.AvgQoS))
				}
			}
		}
		t.AddRow(cells...)
	}
	fmt.Fprintf(w, "%s\n%s", title, t)
}

// Fig12Staleness is the observation-age sweep of figure 12 (in TUs).
var Fig12Staleness = []broker.Time{0, 1, 2, 4, 8}

// Fig12Rates is the arrival-rate sweep used for figure 12.
var Fig12Rates = []float64{60, 120, 180, 240}

// Fig12Row is one point of figure 12: the overall success rate of an
// algorithm at one arrival rate under observation staleness E.
type Fig12Row struct {
	Algorithm   sim.Algorithm
	Rate        float64
	StaleE      broker.Time
	SuccessRate float64
	// ReserveFailures counts plans that failed at reservation time, the
	// direct casualty of stale observations.
	ReserveFailures int
}

// Fig12 regenerates figure 12 for one algorithm (basic for panel (a),
// tradeoff for panel (b)), plus the accurate-observation random baseline
// the paper overlays for comparison.
func Fig12(opts Opts, alg sim.Algorithm) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, rate := range Fig12Rates {
		for _, e := range Fig12Staleness {
			// Same salt across E values: the environment (capacities,
			// arrival stream) is held fixed so the sweep isolates the
			// staleness effect.
			cfg := opts.config(alg, rate, 12000+int64(rate)*10)
			cfg.StaleE = e
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig12Row{
				Algorithm:       alg,
				Rate:            rate,
				StaleE:          e,
				SuccessRate:     res.Metrics.Overall.SuccessRate(),
				ReserveFailures: res.Metrics.ReserveFailures,
			})
		}
		// The paper overlays random with accurate observations.
		res, err := sim.Run(opts.config(sim.AlgRandom, rate, 12900+int64(rate)))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig12Row{
			Algorithm:   sim.AlgRandom,
			Rate:        rate,
			StaleE:      0,
			SuccessRate: res.Metrics.Overall.SuccessRate(),
		})
	}
	return rows, nil
}

// PrintFig12 renders one panel of figure 12.
func PrintFig12(w io.Writer, title string, rows []Fig12Row) {
	header := []string{"rate"}
	for _, e := range Fig12Staleness {
		header = append(header, fmt.Sprintf("E=%g", float64(e)))
	}
	header = append(header, "random(E=0)")
	t := &stats.Table{Header: header}
	for _, rate := range Fig12Rates {
		cells := []string{fmt.Sprintf("%g", rate)}
		for _, e := range Fig12Staleness {
			for _, r := range rows {
				if r.Rate == rate && r.StaleE == e && r.Algorithm != sim.AlgRandom {
					cells = append(cells, fmt.Sprintf("%.1f%%", 100*r.SuccessRate))
				}
			}
		}
		for _, r := range rows {
			if r.Rate == rate && r.Algorithm == sim.AlgRandom {
				cells = append(cells, fmt.Sprintf("%.1f%%", 100*r.SuccessRate))
			}
		}
		t.AddRow(cells...)
	}
	fmt.Fprintf(w, "%s\n%s", title, t)
}

// Fig13DiversityRatio is the compression the paper applies in
// section 5.2.5: highest:lowest requirement limited to 3:1.
const Fig13DiversityRatio = 3.0

// Fig13 regenerates figure 13: figure 11 under compressed requirement
// diversity.
func Fig13(opts Opts) ([]Fig11Row, error) {
	return fig11With(opts, Fig11Rates, Fig13DiversityRatio)
}
