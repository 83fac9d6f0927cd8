package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"qosres/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.csv from the current code")

// goldenOpts are the options of the committed CSVs: the same files as
// `experiments -run fig11,table1,table2,table3,table4,fig12,fig13
// -duration 1500 -seed 1 -csv DIR`.
var goldenOpts = Opts{Seed: 1, Duration: 1500}

// paperCSVs regenerates every paper output through the drivers and CSV
// writers cmd/experiments uses, keyed by its file name there.
func paperCSVs(t *testing.T, opts Opts) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	put := func(name string, write func(io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.Bytes()
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	fig11, err := Fig11(opts)
	must(err)
	put("fig11.csv", func(w io.Writer) error { return WriteFig11CSV(w, fig11) })
	tabs, err := Tables12(opts)
	must(err)
	put("table1.csv", func(w io.Writer) error { return WritePathTableCSV(w, tabs.Table1) })
	put("table2.csv", func(w io.Writer) error { return WritePathTableCSV(w, tabs.Table2) })
	for name, alg := range map[string]sim.Algorithm{"table3.csv": sim.AlgBasic, "table4.csv": sim.AlgTradeoff} {
		rows, err := Tables34(opts, alg)
		must(err)
		put(name, func(w io.Writer) error { return WriteTable34CSV(w, rows) })
	}
	for _, alg := range []sim.Algorithm{sim.AlgBasic, sim.AlgTradeoff} {
		rows, err := Fig12(opts, alg)
		must(err)
		put("fig12_"+string(alg)+".csv", func(w io.Writer) error { return WriteFig12CSV(w, rows) })
	}
	fig13, err := Fig13(opts)
	must(err)
	put("fig13.csv", func(w io.Writer) error { return WriteFig11CSV(w, fig13) })
	return out
}

// TestPaperOutputsGolden pins the paper's figures 11-13 and tables 1-4
// byte for byte: any change to the simulator, the planners, the
// workload or the brokers that moves a single reported digit fails
// here. Run with -update to accept a deliberate change.
func TestPaperOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper sweep")
	}
	if raceEnabled {
		t.Skip("deterministic output; the sweep is too slow under the race detector")
	}
	for name, got := range paperCSVs(t, goldenOpts) {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed golden:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
