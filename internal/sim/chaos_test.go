package sim

import (
	"strings"
	"testing"

	"qosres/internal/adapt"
	"qosres/internal/obs"
)

// TestChaosStress is the fault-injection tentpole test: the 32-client
// concurrent stress harness with a seeded fault walk failing resources,
// shrinking capacities, repairing affected sessions, and sweeping
// expired leases — all while sessions are established, heartbeated,
// released, and (deliberately) orphaned. RunChaos itself asserts the
// chaos invariants: reserved totals never exceed the original
// capacities, the drained environment returns to its exact original
// shape with zero live holds, and no zombie session stays registered.
// The test additionally checks the per-run accounting and that the
// fault/repair/lease counters surface in the Prometheus exposition. CI
// runs it under -race.
func TestChaosStress(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(31)
	sc.Config.Obs = reg
	fc := DefaultFaultsConfig()
	// Tilt the walk toward capacity shrinks: a downed resource has no
	// alternative placement in the fixed bindings, so only shrink faults
	// can end in a repaired or degraded session rather than a failed one.
	fc.Random.FailProb = 0.15
	fc.Random.ShrinkProb = 0.4
	fc.Random.RecoverProb = 0.25
	sc.Config.Faults = fc
	// Mid-range capacities (the stress default is deliberately starved):
	// enough headroom that sessions establish and repairs can succeed,
	// low enough that faults still push sessions into degradation.
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200

	res, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)

	if res.Injected == 0 {
		t.Error("chaos run injected no faults")
	}
	if got, want := res.Established+res.PlanInfeasible+res.AdmitRefused,
		sc.Sessions*sc.Iterations; got != want {
		t.Errorf("outcomes %d, want %d", got, want)
	}
	if res.Orphaned > res.Established {
		t.Errorf("orphaned %d > established %d", res.Orphaned, res.Established)
	}

	text := exposition(t, reg)
	for _, name := range []string{
		obs.MetricFaultInjected,
		obs.MetricSessionsRepaired,
		obs.MetricSessionsDegraded,
		obs.MetricSessionsRepairFailed,
		obs.MetricLeasesExpired,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from the Prometheus exposition", name)
		}
	}
	// The walk's events count by kind; the sum must match the harness's
	// own tally.
	var injected float64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == obs.MetricFaultInjected {
			injected += c.Value
		}
	}
	if int(injected) != res.Injected {
		t.Errorf("qosres_fault_injected_total = %g, harness counted %d", injected, res.Injected)
	}
}

// TestChaosAdaptive is the adaptation acceptance run: the mid-session
// adaptation controller ticking on every driver step while the walk
// injects faults, contention surges, 12%-loss/6%-dup transport chaos
// with partitions, and crash/restart cycles. RunChaos itself asserts
// all standing invariants plus the two adaptation ones — every live
// session's booked holds match its recorded level exactly (audited on
// every step and at drain), and no downgrade lands below the policy's
// rank floor. CI runs it under -race and uploads the summary.
func TestChaosAdaptive(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(47)
	sc.Config.Obs = reg
	fc := DefaultFaultsConfig()
	fc.Random.FailProb = 0.1
	fc.Random.ShrinkProb = 0.3
	fc.Random.RecoverProb = 0.25
	fc.Random.SurgeProb = 0.25
	fc.Random.CrashProb = 0.05
	fc.Random.PartitionProb = 0.05
	fc.Random.HealProb = 0.3
	fc.Transport = DefaultTransportConfig()
	fc.Transport.Loss = 0.12
	fc.Transport.Dup = 0.06
	ap := adapt.DefaultPolicy()
	// Tighter watermarks than the serving default: the mid-range
	// capacities keep utilization low, and the run should actually
	// exercise renegotiations racing the faults, not just hold.
	ap.HighWater = 0.6
	ap.LowWater = 0.4
	ap.Cooldown = 3 * fc.StepEvery
	fc.Adapt = &ap
	sc.Config.Faults = fc
	// Mid-range capacities: headroom enough to establish and upgrade,
	// scarce enough that surges push utilization over the watermark.
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200

	res, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)

	if res.Injected == 0 {
		t.Error("adaptive chaos run injected no faults")
	}
	if res.Established > 0 && res.QoSSeconds <= 0 {
		t.Errorf("%d sessions established but %g QoS-seconds delivered",
			res.Established, res.QoSSeconds)
	}
	// The adaptation metrics surface in the Prometheus exposition.
	text := exposition(t, reg)
	for _, name := range []string{
		obs.MetricAdaptUpgrades,
		obs.MetricAdaptDowngrades,
		obs.MetricAdaptHeld,
		obs.MetricAdaptFlapsSuppressed,
		obs.MetricDeliveredQoSSeconds,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from the Prometheus exposition", name)
		}
	}
}

// TestChaosWithoutLeasing pins that chaos also runs lease-free when no
// client ever orphans a session: releases and repairs alone must keep
// the environment leak-free.
func TestChaosWithoutLeasing(t *testing.T) {
	sc := DefaultStressConfig(5)
	sc.Sessions = 8
	sc.Iterations = 4
	fc := DefaultFaultsConfig()
	fc.LeaseTTL = 0
	fc.OrphanRate = 0
	sc.Config.Faults = fc

	res, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeasesExpired != 0 || res.Orphaned != 0 {
		t.Errorf("lease-free run reclaimed %d leases, orphaned %d", res.LeasesExpired, res.Orphaned)
	}
}

// TestChaosConfigValidation pins the chaos parameter contracts.
func TestChaosConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(AlgBasic, 120, 1)
		cfg.UseRuntime = true
		cfg.Faults = DefaultFaultsConfig()
		return cfg
	}
	cfg := base()
	if err := cfg.validate(); err != nil {
		t.Fatalf("default chaos config invalid: %v", err)
	}

	cfg = base()
	cfg.UseRuntime = false
	if err := cfg.validate(); err == nil {
		t.Error("chaos without UseRuntime accepted")
	}
	cfg = base()
	cfg.Faults.OrphanRate = 0.5
	cfg.Faults.LeaseTTL = 0
	if err := cfg.validate(); err == nil {
		t.Error("orphaning without leasing accepted")
	}
	cfg = base()
	cfg.Faults.Steps = 0
	if err := cfg.validate(); err == nil {
		t.Error("zero chaos steps accepted")
	}
	cfg = base()
	cfg.Faults.StepEvery = 0
	if err := cfg.validate(); err == nil {
		t.Error("zero step interval accepted")
	}

	// The deterministic single-threaded entry point refuses chaos.
	cfg = base()
	cfg.Duration = 10
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a chaos config")
	}
}

// TestTreeCheckReportsBrokenTrees pins invariant 4's per-tree check: a
// tree with an orphan span, a rootless tree and a two-root tree are
// each counted broken, a well-formed tree is not, and only ok
// establish roots count toward the established sessions. Every tree
// reaches the forwarding sink whole.
func TestTreeCheckReportsBrokenTrees(t *testing.T) {
	sp := func(span, parent uint64, name, status string) obs.SpanRecord {
		return obs.SpanRecord{Trace: 1, Span: span, Parent: parent, Name: name, Status: status}
	}
	for _, tc := range []struct {
		name        string
		spans       []obs.SpanRecord
		broken, oks int
	}{
		{"complete", []obs.SpanRecord{
			sp(2, 1, obs.StageReserve, obs.StatusOK), sp(1, 0, obs.StageEstablish, obs.StatusOK),
		}, 0, 1},
		{"refused root", []obs.SpanRecord{sp(1, 0, obs.StageEstablish, "refused")}, 0, 0},
		{"orphan span", []obs.SpanRecord{
			sp(1, 0, obs.StageEstablish, obs.StatusOK), sp(3, 9, "prepare", obs.StatusOK),
		}, 1, 1},
		{"rootless", []obs.SpanRecord{sp(2, 1, obs.StageReserve, obs.StatusOK)}, 1, 0},
		{"two roots", []obs.SpanRecord{
			sp(1, 0, obs.StageEstablish, obs.StatusOK), sp(2, 0, "repair", obs.StatusOK),
		}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := &treeCollector{}
			c := &treeCheck{out: col}
			c.ExportTrace(tc.spans)
			if c.broken != tc.broken || c.okEstablish != tc.oks {
				t.Fatalf("broken %d, ok establish %d; want %d, %d", c.broken, c.okEstablish, tc.broken, tc.oks)
			}
			if len(col.trees) != 1 || len(col.trees[0]) != len(tc.spans) {
				t.Fatalf("forwarded %v, want the one tree", col.trees)
			}
		})
	}
}
