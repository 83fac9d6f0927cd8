package sim

import (
	"context"
	"testing"

	"qosres/internal/core"
	"qosres/internal/proxy"
)

// TestInprocCountRatchet pins what one in-process establish and release
// costs in allocations: the bench inproc_hot cycle on one goroutine —
// the seed-1 deployment's first offer, planned with core.Basic, leased,
// with no WAL, codec or HTTP — after a warm pass. A change that adds
// per-admission garbage to the protocol, the fabric or the books fails
// here instead of in a 20-second benchmark run.
func TestInprocCountRatchet(t *testing.T) {
	se, err := NewServedEnv(ServedOptions{Seed: 1, LeaseTTL: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	hot, err := se.SampleSession()
	if err != nil {
		t.Fatal(err)
	}
	service, binding, _, err := hot.Doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := se.Runtime()
	spec := proxy.SessionSpec{Service: service, Binding: binding, Planner: core.Basic{}}
	cycle := func() {
		s, err := rt.EstablishContext(context.Background(), hot.MainHost, spec)
		if err != nil {
			t.Fatalf("establish: %v", err)
		}
		if err := s.Release(); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	t.Logf("%.0f allocs per establish+release", allocs)

	// The race detector instruments allocations, so the ceiling is only
	// meaningful in a plain build.
	const ceiling = 100
	if allocs > ceiling && !raceEnabled {
		t.Errorf("%.0f allocations per establish+release, ceiling %d", allocs, ceiling)
	}
}
