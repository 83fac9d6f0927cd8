package fault

import (
	"math/rand"
	"testing"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/topo"
)

// world builds a pool over a 3-host line topology A -L1- B -L2- C with a
// cpu broker per host and a broker per link, all capacity 100.
func world(t *testing.T) (*broker.Pool, *topo.Topology) {
	t.Helper()
	tp := topo.MustNew(
		[]topo.HostID{"A", "B", "C"},
		[]topo.Link{{ID: "L1", A: "A", B: "B"}, {ID: "L2", A: "B", B: "C"}},
	)
	pool := broker.NewPool(tp)
	for _, h := range tp.Hosts() {
		if _, err := pool.AddLocal("cpu", h, 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range tp.Links() {
		if _, err := pool.AddLink(l.ID, 100); err != nil {
			t.Fatal(err)
		}
	}
	return pool, tp
}

func avail(t *testing.T, pool *broker.Pool, r string) float64 {
	t.Helper()
	b, ok := pool.Get(r)
	if !ok {
		t.Fatalf("resource %s missing", r)
	}
	return b.Available()
}

func TestFailAndRecoverResource(t *testing.T) {
	pool, tp := world(t)
	in := New(pool, tp)
	var events []Event
	in.OnFault(func(ev Event) { events = append(events, ev) })

	if err := in.FailResource(1, "cpu@A"); err != nil {
		t.Fatal(err)
	}
	if got := avail(t, pool, "cpu@A"); got != 0 {
		t.Fatalf("failed cpu@A available %g", got)
	}
	if got := in.Active(); len(got) != 1 || got[0] != "cpu@A" {
		t.Fatalf("active = %v", got)
	}
	if err := in.RecoverResource(2, "cpu@A"); err != nil {
		t.Fatal(err)
	}
	if got := avail(t, pool, "cpu@A"); got != 100 {
		t.Fatalf("recovered cpu@A available %g", got)
	}
	if len(in.Active()) != 0 {
		t.Fatalf("active = %v", in.Active())
	}
	if len(events) != 2 || events[0].Kind != KindResourceDown || events[1].Kind != KindRecover {
		t.Fatalf("events = %v", events)
	}
	if err := in.FailResource(3, "nope"); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestFailLinkUsesLinkKind(t *testing.T) {
	pool, tp := world(t)
	in := New(pool, tp)
	var last Event
	in.OnFault(func(ev Event) { last = ev })
	if err := in.FailLink(1, "L1"); err != nil {
		t.Fatal(err)
	}
	if last.Kind != KindLinkDown || last.Resources[0] != "link:L1" {
		t.Fatalf("event = %v", last)
	}
	if got := avail(t, pool, "link:L1"); got != 0 {
		t.Fatalf("failed link available %g", got)
	}
}

func TestFailHostTakesResourcesAndIncidentLinks(t *testing.T) {
	pool, tp := world(t)
	in := New(pool, tp)
	var last Event
	in.OnFault(func(ev Event) { last = ev })

	if err := in.FailHost(1, "B"); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"cpu@B": true, "link:L1": true, "link:L2": true}
	if last.Kind != KindHostDown || len(last.Resources) != len(want) {
		t.Fatalf("event = %v, want kinds of %v", last, want)
	}
	for _, r := range last.Resources {
		if !want[r] {
			t.Fatalf("unexpected resource %s in %v", r, last.Resources)
		}
		if got := avail(t, pool, r); got != 0 {
			t.Fatalf("%s available %g after host failure", r, got)
		}
	}
	// The other hosts' resources are untouched.
	if got := avail(t, pool, "cpu@A"); got != 100 {
		t.Fatalf("cpu@A available %g", got)
	}
	if err := in.RecoverHost(2, "B"); err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got := avail(t, pool, r); got != 100 {
			t.Fatalf("%s available %g after host recovery", r, got)
		}
	}
}

func TestShrinkAndRestoreCapacity(t *testing.T) {
	pool, tp := world(t)
	in := New(pool, tp)
	if err := in.ShrinkCapacity(1, "cpu@A", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := avail(t, pool, "cpu@A"); got != 50 {
		t.Fatalf("shrunk available %g", got)
	}
	if got := in.Shrunk(); len(got) != 1 || got[0] != "cpu@A" {
		t.Fatalf("shrunk = %v", got)
	}
	// A second shrink compounds but keeps the first-recorded original.
	if err := in.ShrinkCapacity(2, "cpu@A", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := avail(t, pool, "cpu@A"); got != 25 {
		t.Fatalf("double-shrunk available %g", got)
	}
	if err := in.RestoreCapacity(3, "cpu@A"); err != nil {
		t.Fatal(err)
	}
	if got := avail(t, pool, "cpu@A"); got != 100 {
		t.Fatalf("restored available %g", got)
	}
	if err := in.RestoreCapacity(4, "cpu@A"); err == nil {
		t.Fatal("restore of unshrunk resource accepted")
	}
	if err := in.ShrinkCapacity(5, "cpu@A", 1.5); err == nil {
		t.Fatal("shrink factor over 1 accepted")
	}
}

func TestRecoverAllRestoresOriginalShape(t *testing.T) {
	pool, tp := world(t)
	in := New(pool, tp)
	if err := in.FailHost(1, "B"); err != nil {
		t.Fatal(err)
	}
	if err := in.ShrinkCapacity(1, "cpu@A", 0.4); err != nil {
		t.Fatal(err)
	}
	in.RecoverAll(2)
	if len(in.Active()) != 0 || len(in.Shrunk()) != 0 {
		t.Fatalf("residual faults: down=%v shrunk=%v", in.Active(), in.Shrunk())
	}
	for _, b := range pool.LocalBrokers() {
		if b.Available() != 100 || b.Capacity() != 100 {
			t.Fatalf("%s not whole: cap %g avail %g", b.Resource(), b.Capacity(), b.Available())
		}
	}
}

func TestRandomWalkIsSeededAndBounded(t *testing.T) {
	cfg := DefaultRandomConfig()
	run := func(seed int64) ([]Event, int) {
		pool, tp := world(t)
		in := New(pool, tp)
		var events []Event
		in.OnFault(func(ev Event) { events = append(events, ev) })
		rng := rand.New(rand.NewSource(seed))
		maxDown := 0
		for i := 0; i < 500; i++ {
			in.RandomStep(broker.Time(i), rng, cfg)
			if n := len(in.Active()); n > maxDown {
				maxDown = n
			}
		}
		in.RecoverAll(500)
		for _, b := range pool.LocalBrokers() {
			if b.Available() != 100 || b.Capacity() != 100 {
				t.Fatalf("%s not whole after walk: cap %g avail %g",
					b.Resource(), b.Capacity(), b.Available())
			}
		}
		return events, maxDown
	}

	e1, max1 := run(42)
	e2, _ := run(42)
	if len(e1) == 0 {
		t.Fatal("walk injected nothing in 500 steps")
	}
	if max1 > cfg.MaxActive {
		t.Fatalf("walk exceeded MaxActive: %d > %d", max1, cfg.MaxActive)
	}
	if len(e1) != len(e2) {
		t.Fatalf("same seed, different walks: %d vs %d events", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].Kind != e2[i].Kind || e1[i].Resources[0] != e2[i].Resources[0] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, e1[i], e2[i])
		}
	}
	e3, _ := run(7)
	same := len(e1) == len(e3)
	if same {
		for i := range e1 {
			if e1[i].Kind != e3[i].Kind || e1[i].Resources[0] != e3[i].Resources[0] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical walks")
	}
}

func TestInjectorCountsByKind(t *testing.T) {
	pool, tp := world(t)
	reg := obs.New()
	in := New(pool, tp)
	in.Instrument(obs.NewFaultMetrics(reg))
	if err := in.FailResource(1, "cpu@A"); err != nil {
		t.Fatal(err)
	}
	if err := in.FailLink(1, "L1"); err != nil {
		t.Fatal(err)
	}
	if err := in.RecoverResource(2, "cpu@A"); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want float64) {
		t.Helper()
		c := reg.Counter(obs.MetricFaultInjected, "", "kind", kind)
		if got := c.Value(); got != want {
			t.Fatalf("%s count = %g, want %g", kind, got, want)
		}
	}
	check(string(KindResourceDown), 1)
	check(string(KindLinkDown), 1)
	check(string(KindRecover), 1)
}
