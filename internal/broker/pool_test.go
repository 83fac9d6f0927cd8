package broker

import (
	"errors"
	"testing"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

func testPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(topo.Figure9())
	for i := 1; i <= topo.NumServers; i++ {
		if _, err := p.AddLocal("cpu", topo.ServerHost(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range topo.Figure9().Links() {
		if _, err := p.AddLink(l.ID, 100); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPoolResourceIDs(t *testing.T) {
	if got := LocalResourceID("cpu", "H2"); got != "cpu@H2" {
		t.Fatalf("LocalResourceID = %q", got)
	}
	if got := LinkResourceID("L7"); got != "link:L7" {
		t.Fatalf("LinkResourceID = %q", got)
	}
	if got := NetResourceID("H4", "H1"); got != "net:H4->H1" {
		t.Fatalf("NetResourceID = %q", got)
	}
}

func TestPoolRegistrationAndLookup(t *testing.T) {
	p := testPool(t)
	if _, ok := p.Get("cpu@H1"); !ok {
		t.Fatal("cpu@H1 missing")
	}
	if _, ok := p.Get("link:L7"); !ok {
		t.Fatal("link:L7 missing")
	}
	if _, ok := p.Get("nope"); ok {
		t.Fatal("unknown resource found")
	}
	if got := len(p.Resources()); got != 18 {
		t.Fatalf("resources = %d, want 18 (4 cpus + 14 links)", got)
	}
	if got := len(p.LocalBrokers()); got != 18 {
		t.Fatalf("local brokers = %d", got)
	}
}

func TestPoolRejectsDuplicates(t *testing.T) {
	p := testPool(t)
	if _, err := p.AddLocal("cpu", "H1", 10); err == nil {
		t.Fatal("duplicate local accepted")
	}
	if _, err := p.AddLink("L1", 10); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if _, err := p.AddLink("L99", 10); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestPoolNetworkComposition(t *testing.T) {
	p := testPool(t)
	n, err := p.Network("H1", "H2")
	if err != nil {
		t.Fatal(err)
	}
	if n.Resource() != "net:H1->H2" {
		t.Fatalf("resource = %s", n.Resource())
	}
	if got := len(n.Links()); got != 1 {
		t.Fatalf("H1->H2 links = %d, want 1 (direct)", got)
	}
	// Cached on second call.
	n2, err := p.Network("H1", "H2")
	if err != nil || n2 != n {
		t.Fatal("network broker not cached")
	}
	// Now visible in Get.
	if _, ok := p.Get("net:H1->H2"); !ok {
		t.Fatal("network resource not registered")
	}
	// Proxy to domain.
	nd, err := p.Network(topo.ServerHost(1), topo.DomainHost(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nd.Links()); got != 1 {
		t.Fatalf("H1->D2 links = %d", got)
	}
}

func TestPoolNetworkErrors(t *testing.T) {
	p := NewPool(nil)
	if _, err := p.Network("A", "B"); err == nil {
		t.Fatal("no-topology pool accepted network")
	}
	p2 := testPool(t)
	if _, err := p2.Network("H1", "H1"); err == nil {
		t.Fatal("same-host network accepted")
	}
	if _, err := p2.Network("H1", "ghost"); err == nil {
		t.Fatal("unknown host accepted")
	}
	// Missing link broker.
	p3 := NewPool(topo.Figure9())
	if _, err := p3.Network("H1", "H2"); err == nil {
		t.Fatal("network without link brokers accepted")
	}
}

func TestPoolSnapshot(t *testing.T) {
	p := testPool(t)
	if _, err := p.Network("H1", "H2"); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot(5, []string{"cpu@H1", "net:H1->H2"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.At != 5 || snap.Avail["cpu@H1"] != 100 || snap.Avail["net:H1->H2"] != 100 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Alpha["cpu@H1"] != 1 {
		t.Fatalf("alpha = %v", snap.Alpha["cpu@H1"])
	}
	if _, err := p.Snapshot(5, []string{"ghost"}); err == nil {
		t.Fatal("snapshot of unknown resource accepted")
	}
}

func TestPoolStaleSnapshot(t *testing.T) {
	p := testPool(t)
	b, _ := p.Get("cpu@H1")
	id, err := b.Reserve(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	// Observed now: 60. Observed as of t=5: 100.
	snap, err := p.StaleSnapshot(20, []string{"cpu@H1"}, map[string]Time{"cpu@H1": 15})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Avail["cpu@H1"] != 100 {
		t.Fatalf("stale avail = %v, want 100 (as of t=5)", snap.Avail["cpu@H1"])
	}
	// Zero lag observes the present.
	snap, err = p.StaleSnapshot(20, []string{"cpu@H1"}, map[string]Time{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Avail["cpu@H1"] != 60 {
		t.Fatalf("zero-lag avail = %v, want 60", snap.Avail["cpu@H1"])
	}
	if _, err := p.StaleSnapshot(20, []string{"ghost"}, nil); err == nil {
		t.Fatal("stale snapshot of unknown resource accepted")
	}
}

func TestReserveAllAtomicity(t *testing.T) {
	p := testPool(t)
	if _, err := p.Network("H1", "H2"); err != nil {
		t.Fatal(err)
	}
	// cpu@H2 can't satisfy 150: everything must roll back.
	req := qos.ResourceVector{"cpu@H1": 30, "cpu@H2": 150, "net:H1->H2": 20}
	if _, err := p.ReserveAll(1, req); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
	for _, r := range []string{"cpu@H1", "cpu@H2", "net:H1->H2"} {
		b, _ := p.Get(r)
		if b.Available() != 100 {
			t.Errorf("%s avail = %v after failed ReserveAll", r, b.Available())
		}
	}
	// A feasible request reserves everything; release restores it.
	req["cpu@H2"] = 50
	m, err := p.ReserveAll(2, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Resources()); got != 3 {
		t.Fatalf("reserved %d resources", got)
	}
	b, _ := p.Get("net:H1->H2")
	if b.Available() != 80 {
		t.Fatalf("net avail = %v", b.Available())
	}
	if err := m.Release(3); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"cpu@H1", "cpu@H2", "net:H1->H2"} {
		b, _ := p.Get(r)
		if b.Available() != 100 {
			t.Errorf("%s avail = %v after release", r, b.Available())
		}
	}
}

func TestReserveAllUnknownResource(t *testing.T) {
	p := testPool(t)
	if _, err := p.ReserveAll(0, qos.ResourceVector{"ghost": 1}); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestReserveAllSkipsZeroAmounts(t *testing.T) {
	p := testPool(t)
	m, err := p.ReserveAll(0, qos.ResourceVector{"cpu@H1": 0, "cpu@H2": 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Resources()); got != 1 {
		t.Fatalf("reserved %d resources, want 1", got)
	}
	_ = m.Release(1)
}

func TestPoolHistoryHorizon(t *testing.T) {
	// The pool hands its construction-time horizon to every local broker
	// it registers: with 10 TU kept, the release at 20 retires the
	// initial entry and keeps the reservation at 10 as the baseline.
	p := NewPoolWindow(topo.Figure9(), DefaultAlphaWindow, 10)
	local, err := p.AddLocal("cpu", topo.ServerHost(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := local.Reserve(10, 40)
	_ = local.Release(20, id)
	if got := local.AvailableAt(30); got != 100 {
		t.Fatalf("post-trim current = %v, want 100", got)
	}
	if got := local.AvailableAt(10); got != 60 {
		t.Fatalf("post-trim baseline = %v, want 60", got)
	}
	if got := len(local.log.buf) - local.log.head; got != 2 {
		t.Fatalf("log retains %d entries, want 2", got)
	}
}

func TestStaleSnapshotRescalesAlpha(t *testing.T) {
	// Two identical pools with identical broker histories: one observed
	// stale, one fresh, at the same instant. The stale alpha must equal
	// the fresh alpha rescaled by avail_stale/avail_now, preserving the
	// trend relative to what the proxy believes it sees.
	mk := func() *Pool {
		p := testPool(t)
		b, _ := p.Get("cpu@H1")
		b.Report(0)
		if _, err := b.Reserve(1, 40); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stale, err := mk().StaleSnapshot(2, []string{"cpu@H1"}, map[string]Time{"cpu@H1": 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mk().Snapshot(2, []string{"cpu@H1"})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Avail["cpu@H1"] != 100 || fresh.Avail["cpu@H1"] != 60 {
		t.Fatalf("avails = %v / %v", stale.Avail["cpu@H1"], fresh.Avail["cpu@H1"])
	}
	want := fresh.Alpha["cpu@H1"] * (100.0 / 60.0)
	if got := stale.Alpha["cpu@H1"]; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("stale alpha = %v, want rescaled %v", got, want)
	}
}

func TestStaleSnapshotNegativeLagClamped(t *testing.T) {
	p := testPool(t)
	snap, err := p.StaleSnapshot(5, []string{"cpu@H1"}, map[string]Time{"cpu@H1": -3})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Avail["cpu@H1"] != 100 {
		t.Fatalf("avail = %v", snap.Avail["cpu@H1"])
	}
}
