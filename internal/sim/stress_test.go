package sim

import (
	"strings"
	"testing"

	"qosres/internal/obs"
)

// runStress is a fault-free RunChaos: one driver step, no walk, no
// leases, no orphans — the concurrent clients alone against the
// validate-at-commit protocol.
func runStress(sc StressConfig) (*ChaosResult, error) {
	sc.Config.Faults = &FaultsConfig{Steps: 1, StepEvery: 1}
	return RunChaos(sc)
}

// TestConcurrentAdmissionStress is the tentpole invariant test: 32
// goroutines hammer one proxy.Runtime with establish/release traffic
// against a deliberately under-provisioned figure-9 environment.
// RunChaos itself asserts that no broker is ever over-committed and
// that no failed admission leaks holds; the test additionally checks
// that the admission counters surface in the Prometheus exposition.
// CI runs it under -race.
func TestConcurrentAdmissionStress(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(7)
	sc.Config.Obs = reg

	res, err := runStress(sc)
	if err != nil {
		t.Fatal(err)
	}
	adm := obs.NewAdmitMetrics(reg)
	retries, rollbacks, stale := adm.Retries.Value(), adm.Rollbacks.Value(), adm.StaleRejects.Value()
	t.Logf("stress: %s (retries %.0f, rollbacks %.0f, stale-rejects %.0f)", res, retries, rollbacks, stale)
	if res.Established == 0 {
		t.Fatal("no session established; the stress run exercised nothing")
	}
	if rollbacks != stale {
		t.Fatalf("rollbacks %.0f != stale rejects %.0f: the runtime path books exactly one rollback per commit refusal",
			rollbacks, stale)
	}
	if retries > stale {
		t.Fatalf("retries %.0f > stale rejects %.0f: every retry must follow a refusal",
			retries, stale)
	}

	text := exposition(t, reg)
	for _, name := range []string{
		obs.MetricAdmitRetries,
		obs.MetricAdmitStaleRejects,
		obs.MetricRollbacks,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from Prometheus exposition", name)
		}
	}
}

// TestStressFailFastPolicy pins the MaxAdmitRetries=0 contract: refusals
// are still safe (no leaks, no over-commit — RunChaos checks) and no
// retry is ever counted.
func TestStressFailFastPolicy(t *testing.T) {
	reg := obs.New()
	sc := DefaultStressConfig(11)
	sc.Config.Obs = reg
	sc.Config.MaxAdmitRetries = 0

	if _, err := runStress(sc); err != nil {
		t.Fatal(err)
	}
	if retries := obs.NewAdmitMetrics(reg).Retries.Value(); retries != 0 {
		t.Fatalf("fail-fast policy retried %.0f times", retries)
	}
}

func TestStressConfigValidation(t *testing.T) {
	sc := DefaultStressConfig(1)
	sc.Sessions = 0
	if _, err := runStress(sc); err == nil {
		t.Fatal("zero sessions accepted")
	}
	sc = DefaultStressConfig(1)
	sc.Config.MaxAdmitRetries = -1
	if _, err := runStress(sc); err == nil {
		t.Fatal("negative retry bound accepted")
	}
}
