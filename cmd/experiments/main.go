// Command experiments regenerates the tables and figures of the paper's
// performance study. Each experiment prints the same rows/series the
// paper reports; see EXPERIMENTS.md for paper-vs-measured commentary.
//
// Usage:
//
//	experiments [-run all|fig11|table1|table2|table3|table4|fig12|fig13]
//	            [-seed 1] [-duration 10800] [-scale 1.75]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qosres/internal/broker"
	"qosres/internal/experiments"
	"qosres/internal/sim"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiments: fig11, table1, table2, table3, table4, fig12, fig13, quality")
		seed     = flag.Int64("seed", 1, "base random seed")
		duration = flag.Float64("duration", 10800, "simulated time units per run")
		scale    = flag.Float64("scale", 0, "workload base scale override (0 = calibrated default)")
		plot     = flag.Bool("plot", false, "also render figures as ASCII charts")
		csvDir   = flag.String("csv", "", "also write each experiment's data as CSV files into this directory")
	)
	flag.Parse()

	opts := experiments.Opts{Seed: *seed, Duration: broker.Time(*duration), Scale: *scale}
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		if err := write(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	if all || want["fig11"] {
		rows, err := experiments.Fig11(opts)
		if err != nil {
			fail(err)
		}
		experiments.PrintFig11(os.Stdout, "Figure 11", rows)
		writeCSV("fig11.csv", func(w *os.File) error { return experiments.WriteFig11CSV(w, rows) })
		if *plot {
			experiments.PlotFig11(os.Stdout, "Figure 11 (a): success rate (%)", "a", rows)
			experiments.PlotFig11(os.Stdout, "Figure 11 (b): avg end-to-end QoS level", "b", rows)
		}
		fmt.Println()
	}
	if all || want["table1"] || want["table2"] {
		tabs, err := experiments.Tables12(opts)
		if err != nil {
			fail(err)
		}
		if all || want["table1"] {
			experiments.PrintPathTable(os.Stdout,
				"Table 1: selected reservation paths, figure 10(a) QRGs (rate 80/60 TUs)", tabs.Table1)
			writeCSV("table1.csv", func(w *os.File) error { return experiments.WritePathTableCSV(w, tabs.Table1) })
			fmt.Println()
		}
		if all || want["table2"] {
			experiments.PrintPathTable(os.Stdout,
				"Table 2: selected reservation paths, figure 10(b) QRGs (rate 80/60 TUs)", tabs.Table2)
			writeCSV("table2.csv", func(w *os.File) error { return experiments.WritePathTableCSV(w, tabs.Table2) })
			fmt.Println()
		}
		fmt.Printf("bottleneck coverage (distinct resources that were a plan bottleneck): basic=%d tradeoff=%d\n\n",
			tabs.BottleneckCoverage["basic"], tabs.BottleneckCoverage["tradeoff"])
	}
	if all || want["table3"] {
		rows, err := experiments.Tables34(opts, sim.AlgBasic)
		if err != nil {
			fail(err)
		}
		experiments.PrintTable34(os.Stdout, "Table 3: per-class success rate / avg QoS, basic", rows)
		writeCSV("table3.csv", func(w *os.File) error { return experiments.WriteTable34CSV(w, rows) })
		fmt.Println()
	}
	if all || want["table4"] {
		rows, err := experiments.Tables34(opts, sim.AlgTradeoff)
		if err != nil {
			fail(err)
		}
		experiments.PrintTable34(os.Stdout, "Table 4: per-class success rate / avg QoS, tradeoff", rows)
		writeCSV("table4.csv", func(w *os.File) error { return experiments.WriteTable34CSV(w, rows) })
		fmt.Println()
	}
	if all || want["fig12"] {
		for _, alg := range []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff} {
			rows, err := experiments.Fig12(opts, alg)
			if err != nil {
				fail(err)
			}
			panel := "(a) basic"
			if alg == sim.AlgTradeoff {
				panel = "(b) tradeoff"
			}
			experiments.PrintFig12(os.Stdout, "Figure 12 "+panel+": success rate under stale observations", rows)
			writeCSV(fmt.Sprintf("fig12_%s.csv", alg), func(w *os.File) error { return experiments.WriteFig12CSV(w, rows) })
			if *plot {
				experiments.PlotFig12(os.Stdout, "Figure 12 "+panel+": success rate (%) vs rate", rows)
			}
			fmt.Println()
		}
	}
	if all || want["quality"] {
		res, err := experiments.HeuristicQuality(*seed, 2000)
		if err != nil {
			fail(err)
		}
		experiments.PrintHeuristicQuality(os.Stdout, res)
		fmt.Println()
	}
	if all || want["fig13"] {
		rows, err := experiments.Fig13(opts)
		if err != nil {
			fail(err)
		}
		experiments.PrintFig11(os.Stdout, "Figure 13 (diversity limited to 3:1)", rows)
		writeCSV("fig13.csv", func(w *os.File) error { return experiments.WriteFig11CSV(w, rows) })
		if *plot {
			experiments.PlotFig11(os.Stdout, "Figure 13 (a): success rate (%), diversity 3:1", "a", rows)
		}
		fmt.Println()
	}
}
