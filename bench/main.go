// Command bench is the repository's one benchmark: four workloads, eight
// end-to-end metrics each, and a traced run that breaks an admission
// down by layer. It drives the system only from outside — the qosserved
// binary over loopback HTTP and the public functions of the internal
// packages — and checks the outputs it times. See README.md.
//
//	bash bench/run.sh --workload served_mix --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                       # all four workloads
//	bash bench/run.sh -compare a.jsonl b.jsonl       # self-agreement
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one line of an -out file, the input of -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

var workloadNames = []string{"served_mix", "inproc_hot", "served_contended", "sim_fig11"}

func newWorkload(name string, env *runEnv) (workload, error) {
	switch name {
	case "served_mix":
		return newServedMix(env, 2), nil
	case "inproc_hot":
		return newInprocHot(env), nil
	case "served_contended":
		return newServedContended(env), nil
	case "sim_fig11":
		return newSimFig11(env), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// runEnv is where one invocation keeps its files, all under the
// checkout except the WAL when the checkout is on a disk (see pickWAL).
type runEnv struct {
	seed    int64
	seconds float64
	root    string // checkout root
	runDir  string // root/.bench_build/run-<pid>: logs, built daemon
	walBase string
	walFS   string
	bin     string // qosserved
}

func (e *runEnv) walDir() string { return filepath.Join(e.walBase, "wal") }

func (e *runEnv) wipeWAL() {
	_ = os.RemoveAll(e.walDir()) // a leftover is removed with walBase at exit
}

func (e *runEnv) cleanup() {
	_ = os.RemoveAll(e.walBase) // best effort on the way out
	_ = os.RemoveAll(e.runDir)
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds cmd/qosserved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "qosserved", "main.go")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no cmd/qosserved above the working directory: run from the repository")
		}
		dir = up
	}
}

// pickWAL chooses the WAL directory. Rule 1 of README.md: the log must
// sit on tmpfs, because an fsync to the virtual disk is >90% of an
// admission and varies by 25% between identical runs. The run directory
// is used when the checkout itself is on tmpfs; otherwise /dev/shm, the
// one place the benchmark writes outside its checkout (removed at exit);
// otherwise the run directory on whatever disk holds it, recorded in the
// fingerprint so the numbers are read accordingly.
func pickWAL(runDir string) (base, fs string) {
	if t := fsType(runDir); t == "tmpfs" || t == "ramfs" {
		return filepath.Join(runDir, "walfs"), t
	}
	if fsType("/dev/shm") == "tmpfs" {
		var st syscall.Statfs_t
		if syscall.Statfs("/dev/shm", &st) == nil && uint64(st.Bavail)*uint64(st.Bsize) > 1<<30 {
			if dir, err := os.MkdirTemp("/dev/shm", "qosbench-"); err == nil {
				return dir, "tmpfs"
			}
		}
	}
	return filepath.Join(runDir, "walfs"), fsType(runDir)
}

func newRunEnv(seed int64, seconds float64, bin string) (*runEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &runEnv{seed: seed, seconds: seconds, root: root, bin: bin}
	e.runDir = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	e.walBase, e.walFS = pickWAL(e.runDir)
	if err := os.MkdirAll(e.walBase, 0o755); err != nil {
		e.cleanup()
		return nil, err
	}
	if e.bin == "" {
		// Built once per invocation into the run directory.
		e.bin = filepath.Join(e.runDir, "qosserved")
		cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/qosserved")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			e.cleanup()
			return nil, fmt.Errorf("build qosserved: %v\n%s", err, out)
		}
	}
	return e, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, since a single cold start cannot be windowed.
const setupRepeats = 3

// gated is the untraced run: set up, measure windows for the run length
// (and at least minWindows), check, and report the end-to-end metrics.
func gated(w workload, env *runEnv) (map[string]metric, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.discard()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.discard()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var m0, m1 uint64
	var ws []window
	err := settle(w)
	if err == nil {
		m0, err = w.mallocs()
	}
	if err == nil {
		ws, err = measure(w, nil, env.seconds, minWindows)
	}
	if err == nil {
		m1, err = w.mallocs()
	}
	if err != nil {
		w.discard()
		return nil, err
	}
	rss, ferr := w.finish()

	est := quietEstimate(ws)
	decisions, admitted, rankSum := outcomes(ws, minWindows)
	total, _, _ := outcomes(ws, len(ws))
	rank := 0.0
	if admitted > 0 {
		rank = float64(rankSum) / float64(admitted)
	}
	fmt.Printf("  windows %d  samples/window %.0f  quiet_spread %.3f  medians: %.1f /s, p50 %.4f ms, p95 %.4f ms\n",
		est.windows, est.samplesPerWindow, est.quietSpread, est.perSecMedian, est.p50MsMedian, est.p95MsMedian)
	fmt.Printf("  set-ups %.3f s  outcome prefix %d decisions, %d admitted\n", setups, decisions, admitted)
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"sessions_per_sec":   {est.perSec, "1/s"},
		"establish_p50_ms":   {est.p50Ms, "ms"},
		"establish_p95_ms":   {est.p95Ms, "ms"},
		"success_rate":       {float64(admitted) / float64(decisions), "ratio"},
		"avg_qos_rank":       {rank, "rank"},
		"allocs_per_session": {float64(m1-m0) / float64(total), "count"},
		"peak_rss_mb":        {rss, "MB"},
	}, ferr
}

// settle runs the unmeasured windows the workload asks for after
// set-up: a fixed count when it names one, else for the given time.
func settle(w workload) error {
	d, exactly := w.settleFor()
	begin := time.Now()
	for n := 0; n < exactly || (exactly == 0 && time.Since(begin) < d); n++ {
		if _, err := w.window(nil); err != nil {
			return err
		}
	}
	return nil
}

// measure runs windows until both seconds have passed and atLeast
// windows are done. A host too slow to fit atLeast windows in three
// times the run length stops there, and the window count shows it.
func measure(w workload, rec *recorder, seconds float64, atLeast int) ([]window, error) {
	var ws []window
	begin := time.Now()
	for {
		el := time.Since(begin).Seconds()
		if (el >= seconds && len(ws) >= atLeast) || el >= 3*seconds {
			return ws, nil
		}
		win, err := w.window(rec)
		if err != nil {
			return ws, err
		}
		ws = append(ws, win)
	}
}

// fingerprint describes the machine and the run.
func fingerprint(env *runEnv) map[string]string {
	fp := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"seed":       fmt.Sprint(env.seed),
		"wal_fs":     env.walFS,
		"wal_dir":    env.walBase,
		"cpu":        "unknown",
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(data))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = env.root
	if out, err := cmd.Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(out))
	}
	return fp
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runOne runs one workload, prints its metrics and returns the record.
func runOne(name string, env *runEnv, traced bool) (runRecord, error) {
	w, err := newWorkload(name, env)
	if err != nil {
		return runRecord{}, err
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", name, env.seed, env.seconds, traced)
	var ms map[string]metric
	var checkErr error
	if traced {
		ms, checkErr = tracedRun(name, w, env)
	} else {
		ms, checkErr = gated(w, env)
	}
	if ms == nil {
		return runRecord{}, checkErr
	}
	attempted, failed := w.counts()
	if attempted < 1 {
		attempted = 1
	}
	printMetrics(ms)
	if checkErr != nil {
		fmt.Printf("  checks FAILED: %v\n", checkErr)
	} else {
		fmt.Printf("  checks passed (%d operations, %d failed)\n", attempted, failed)
	}
	rec := runRecord{Workload: name, Seed: env.seed, Result: result{
		Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: ms,
	}}
	if traced {
		rec.Trace = 1
	}
	return rec, nil
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: drives the order and mix of the operations")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		bin     = flag.String("bin", "", "qosserved binary (default: build it)")
		out     = flag.String("out", "", "append one JSON record per workload to this file")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	env, err := newRunEnv(*seed, *seconds, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Daemons die with the harness (Pdeathsig); the directories are
		// removed here.
		env.cleanup()
		os.Exit(1)
	}()

	fp := fingerprint(env)
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("fingerprint:")
	for _, k := range keys {
		fmt.Printf("  %-10s %s\n", k, fp[k])
	}

	code := 0
	var last []byte
	for _, n := range names {
		rec, err := runOne(n, env, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			env.cleanup()
			os.Exit(1)
		}
		if !rec.Result.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		last, err = json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			env.cleanup()
			os.Exit(1)
		}
		if len(names) > 1 {
			fmt.Printf("result %s %s\n", n, last)
		}
	}
	env.cleanup()
	if len(names) == 1 {
		fmt.Println(string(last))
	}
	os.Exit(code)
}
