package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// readRuns loads the untraced records of an -out file, grouped by
// workload then metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method).
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// worsening is how much worse b's median is than a's, as a share of a's,
// in the metric's own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, the medians
// of two sets of runs, b's worsening against the bound, and each set's
// quartile spread. It returns 1 when b is worse than a by more than a
// bound, or a spread other than setup_s's exceeds its bound.
func compareFiles(pathA, pathB string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-17s %-19s %4s %14s %14s %8s %6s %8s %8s\n",
		"workload", "metric", "runs", "median a", "median b", "worse", "bound", "spread a", "spread b")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-17s %-19s missing from one of the files\n", w.Name, m.Name)
				code = 1
				continue
			}
			worse := worsening(m.Better, median(va), median(vb))
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE THAN BOUND"
				code = 1
			}
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict += "  SPREAD OVER BOUND"
				code = 1
			}
			fmt.Printf("%-17s %-19s %2d/%-2d %14.6f %14.6f %+7.2f%% %5.1f%% %7.2f%% %7.2f%%%s\n",
				w.Name, m.Name, len(va), len(vb), median(va), median(vb),
				100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return code
}
