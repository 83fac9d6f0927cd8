package sim

import (
	"strings"
	"testing"
	"time"

	"qosres/internal/obs"
)

// TestChaosPartitioned is the unreliable-messaging acceptance test: the
// concurrent chaos harness rebased on a fabric that loses 12% and
// duplicates 6% of protocol messages, with at least one forced
// partition/heal cycle (plus whatever the seeded walk cuts), every
// Establish and repair sweep bounded by a deadline, per-route circuit
// breakers armed, and broker faults injected on top. RunChaos itself
// asserts the PR-4 invariants under all of this — no broker ever
// commits past its original capacity, the drained environment returns
// to its exact original shape with zero live holds, no zombie session
// stays registered — plus the transport ones: no call overruns its
// deadline (a lost message degrades or aborts the protocol, never
// hangs it). CI runs this under -race.
func TestChaosPartitioned(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(43)
	sc.Sessions = 6
	sc.Iterations = 4
	sc.Config.Obs = reg
	sc.Config.CapacityMin = 600
	sc.Config.CapacityMax = 1200
	fc := DefaultFaultsConfig()
	fc.Random.FailProb = 0.15
	fc.Random.ShrinkProb = 0.3
	fc.Random.RecoverProb = 0.25
	fc.Random.PartitionProb = 0.10
	fc.Random.HealProb = 0.15
	fc.Random.MaxPartitions = 1
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

	if res.Injected == 0 {
		t.Error("chaos run injected no faults")
	}
	if got, want := res.Established+res.PlanInfeasible+res.AdmitRefused+
		res.Shed+res.TimedOut, sc.Sessions*sc.Iterations; got != want {
		t.Errorf("outcomes %d, want %d attempts", got, want)
	}

	// The forced cycle guarantees at least one partition and one heal
	// event per run regardless of the walk's dice.
	byKind := map[string]float64{}
	var dropped, messages float64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case obs.MetricFaultInjected:
			byKind[c.Labels["kind"]] += c.Value
		case obs.MetricTransportDropped:
			dropped += c.Value
		case obs.MetricTransportMessages:
			messages += c.Value
		}
	}
	if byKind["partition"] < 1 || byKind["heal"] < 1 {
		t.Errorf("no full partition/heal cycle: partitions %g, heals %g",
			byKind["partition"], byKind["heal"])
	}
	if messages == 0 {
		t.Error("no protocol messages crossed the fabric")
	}
	if dropped == 0 {
		t.Error("12%% loss plus a partition dropped no messages")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{
		obs.MetricTransportMessages,
		obs.MetricTransportDropped,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from the Prometheus exposition", name)
		}
	}
}

// TestChaosTransportValidation pins the transport-chaos parameter
// contracts.
func TestChaosTransportValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(AlgBasic, 120, 1)
		cfg.UseRuntime = true
		fc := DefaultFaultsConfig()
		fc.Transport = DefaultTransportConfig()
		cfg.Faults = fc
		return cfg
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("default transport chaos config invalid: %v", err)
	}

	cfg := base()
	cfg.Faults.Transport.Loss = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("loss > 1 accepted")
	}
	cfg = base()
	cfg.Faults.Transport.Dup = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative duplication accepted")
	}
	cfg = base()
	cfg.Faults.Transport.Latency = -time.Millisecond
	if err := cfg.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	cfg = base()
	cfg.Faults.LeaseTTL = 0
	cfg.Faults.OrphanRate = 0
	if err := cfg.Validate(); err == nil {
		t.Error("lossy transport without leasing accepted")
	}
	cfg = base()
	cfg.Faults.Transport = nil
	cfg.Faults.Random.PartitionProb = 0.1
	if err := cfg.Validate(); err == nil {
		t.Error("partition walk without transport chaos accepted")
	}
}
