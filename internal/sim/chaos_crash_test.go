package sim

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"qosres/internal/obs"
	"qosres/internal/wal"
)

// TestChaosCrashCycles is the crash-amnesia acceptance test on a perfect
// fabric: the concurrent chaos harness with crash/restart injection
// enabled — hosts repeatedly drop off the fabric, forget their books and
// idempotency tables, and recover them from the write-ahead log while
// clients establish, heartbeat, release, and orphan sessions around
// them. RunChaos itself asserts the standing invariants across the
// restarts: no broker ever commits past its original capacity, the
// drained environment returns to its exact original shape with zero
// live holds or zombie sessions, and every admission attempt flushed a
// complete trace tree. CI runs this under -race.
func TestChaosCrashCycles(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(67)
	sc.Sessions = 6
	sc.Iterations = 4
	sc.Config.Obs = reg
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200
	fc := DefaultFaultsConfig()
	fc.Random.FailProb = 0.1
	fc.Random.ShrinkProb = 0.2
	fc.Random.RecoverProb = 0.2
	fc.Random.CrashProb = 0.25
	sc.Config.Faults = fc

	res, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)

	if res.Crashed < 1 {
		t.Error("chaos run applied no crash/restart cycles")
	}
	if got, want := res.Established+res.PlanInfeasible+res.AdmitRefused+
		res.Shed+res.TimedOut+res.CrashAborted, sc.Sessions*sc.Iterations; got != want {
		t.Errorf("outcomes %d, want %d attempts", got, want)
	}

	// The WAL counters surface in the Prometheus exposition: the 2PC
	// journaled transitions, and every restart replayed some of them.
	text := exposition(t, reg)
	for _, name := range []string{
		obs.MetricWALAppends,
		obs.MetricWALReplayRecords,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from the Prometheus exposition", name)
		}
	}
	var appends, replayed, crashes float64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case obs.MetricWALAppends:
			appends += c.Value
		case obs.MetricWALReplayRecords:
			replayed += c.Value
		case obs.MetricFaultInjected:
			if c.Labels["kind"] == "crash_restart" {
				crashes += c.Value
			}
		}
	}
	if appends == 0 {
		t.Error("no WAL appends recorded during a durable chaos run")
	}
	if int(crashes) != res.Crashed {
		t.Errorf("qosres_fault_injected_total{kind=crash_restart} = %g, harness counted %d", crashes, res.Crashed)
	}
	if res.Crashed > 0 && replayed == 0 {
		t.Error("crash cycles applied but no WAL records replayed")
	}
}

// TestChaosCrashPartitioned is the full acceptance configuration: crash
// cycles on top of the unreliable fabric (12% loss, 6% duplication,
// breakers, deadline-bounded calls) with broker faults and partitions
// still walking. Recovery must reconcile in-doubt prepares over the
// same lossy fabric it crashed off of, and the run must still drain to
// the exact original shape. CI runs this under -race.
func TestChaosCrashPartitioned(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(71)
	sc.Sessions = 6
	sc.Iterations = 4
	sc.Config.Obs = reg
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200
	fc := DefaultFaultsConfig()
	fc.Random.FailProb = 0.1
	fc.Random.ShrinkProb = 0.2
	fc.Random.RecoverProb = 0.2
	fc.Random.PartitionProb = 0.08
	fc.Random.HealProb = 0.12
	fc.Random.MaxPartitions = 1
	fc.Random.CrashProb = 0.2
	fc.Transport = &TransportConfig{
		Loss:             0.12,
		Dup:              0.06,
		Latency:          200 * time.Microsecond,
		Deadline:         200 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
	}
	sc.Config.Faults = fc

	res, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)

	if res.Crashed < 1 {
		t.Error("chaos run applied no crash/restart cycles")
	}
	if got, want := res.Established+res.PlanInfeasible+res.AdmitRefused+
		res.Shed+res.TimedOut+res.CrashAborted, sc.Sessions*sc.Iterations; got != want {
		t.Errorf("outcomes %d, want %d attempts", got, want)
	}
}

// TestChaosCrashValidation pins the config guards: crash injection
// without leasing is refused (a release racing the amnesia window
// strands holds only the sweep can reclaim), as is an out-of-range
// probability.
func TestChaosCrashValidation(t *testing.T) {
	sc := DefaultStressConfig(1)
	fc := DefaultFaultsConfig()
	fc.LeaseTTL = 0
	fc.OrphanRate = 0
	fc.Random.CrashProb = 0.2
	sc.Config.Faults = fc
	if _, err := RunChaos(sc); err == nil {
		t.Error("crash injection without a lease TTL accepted")
	}
	fc2 := DefaultFaultsConfig()
	fc2.Random.CrashProb = 1.5
	sc.Config.Faults = fc2
	if _, err := RunChaos(sc); err == nil {
		t.Error("crash probability 1.5 accepted")
	}
}

// TestChaosCrashSharedFaultsConfig runs two crash-cycle chaos runs
// concurrently over one *FaultsConfig with no WAL directory. Each run
// must journal into a temporary directory of its own and leave the
// caller's config untouched: -race reports any write to it, and two
// runs replaying one shared log would break each other's books.
func TestChaosCrashSharedFaultsConfig(t *testing.T) {
	fc := DefaultFaultsConfig()
	fc.Random.CrashProb = 0.25
	errs := make(chan error, 2)
	for _, seed := range []int64{67, 71} {
		sc := DefaultStressConfig(seed)
		sc.Sessions = 4
		sc.Iterations = 3
		sc.Config.CapacityMin = 600
		sc.Config.CapacityMax = 1200
		sc.Config.Faults = fc
		go func() {
			_, err := RunChaos(sc)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if fc.WALDir != "" {
		t.Errorf("RunChaos left WALDir %q in the caller's config", fc.WALDir)
	}
}

// TestChaosCrashClosesWAL is the regression test for a leaked log: a
// crash-cycle chaos run journaling into a caller-provided directory must
// close its write-ahead log before returning, so no descriptor of this
// process still points into the directory and the log replays to its
// end with no torn tail.
func TestChaosCrashClosesWAL(t *testing.T) {
	dir := t.TempDir()
	sc := DefaultStressConfig(67)
	sc.Sessions = 4
	sc.Iterations = 3
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200
	fc := DefaultFaultsConfig()
	fc.Random.CrashProb = 0.25
	fc.WALDir = dir
	sc.Config.Faults = fc

	res, err := RunChaos(sc)
	switch {
	case err != nil && strings.Contains(err.Error(), "chaos invariants violated"):
		// The standing invariants belong to TestChaosCrashCycles; this test
		// pins only that the log is closed on every return path, a failed
		// run's included.
		t.Logf("chaos run: %v", err)
	case err != nil:
		t.Fatal(err)
	case res.Crashed < 1:
		t.Fatal("chaos run applied no crash/restart cycles")
	}
	records, torn, err := wal.Replay(dir)
	if err != nil || torn {
		t.Fatalf("replay after the run: torn=%v err=%v", torn, err)
	}
	if len(records) == 0 {
		t.Fatal("the run journaled nothing into the caller's WAL directory")
	}

	if runtime.GOOS != "linux" {
		t.Skip("open-descriptor check reads /proc/self/fd")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue // the descriptor ReadDir itself used is gone by now
		}
		if strings.HasPrefix(target, real+string(filepath.Separator)) {
			t.Errorf("descriptor %s still open on %s after RunChaos returned", fd.Name(), target)
		}
	}
}
