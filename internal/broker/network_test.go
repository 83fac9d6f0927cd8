package broker

import (
	"errors"
	"math"
	"testing"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

func threeLinks(t *testing.T, caps ...float64) []*Local {
	t.Helper()
	out := make([]*Local, len(caps))
	for i, c := range caps {
		b, err := NewLocal(LinkResourceID(topo.LinkID([]string{"L1", "L2", "L3"}[i%3]+string(rune('a'+i/3)))), c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// reserveRoute reserves amount on a network resource the way a commit
// does: one hold of the amount on every link of the route.
func reserveRoute(n *Network, now Time, amount float64) (*MultiReservation, error) {
	return ReserveAtomic(now, resolverOf(n), qos.ResourceVector{n.Resource(): amount})
}

// chainPool builds a pool over hosts A-B-C-D joined by links L1, L2, L3
// of the given capacities and returns it with the network A->D over all
// three links.
func chainPool(t *testing.T, caps ...float64) (*Pool, *Network, []*Local) {
	t.Helper()
	top := topo.MustNew([]topo.HostID{"A", "B", "C", "D"}, []topo.Link{
		{ID: "L1", A: "A", B: "B"}, {ID: "L2", A: "B", B: "C"}, {ID: "L3", A: "C", B: "D"},
	})
	p := NewPool(top)
	links := make([]*Local, len(caps))
	for i, c := range caps {
		l, err := p.AddLink(topo.LinkID([]string{"L1", "L2", "L3"}[i]), c)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	n, err := p.Network("A", "D")
	if err != nil {
		t.Fatal(err)
	}
	return p, n, links
}

func TestNetworkAvailabilityIsRouteMin(t *testing.T) {
	links := threeLinks(t, 100, 60, 80)
	n, err := NewNetwork("net:A->B", links)
	if err != nil {
		t.Fatal(err)
	}
	if n.Available() != 60 {
		t.Fatalf("avail = %v, want min link = 60", n.Available())
	}
	if n.Capacity() != 60 {
		t.Fatalf("capacity = %v, want 60", n.Capacity())
	}
	if got := len(n.Links()); got != 3 {
		t.Fatalf("links = %d", got)
	}
}

func TestNetworkReserveHitsEveryLink(t *testing.T) {
	links := threeLinks(t, 100, 60, 80)
	n, _ := NewNetwork("net:A->B", links)
	m, err := reserveRoute(n, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Resources()); got != 3 {
		t.Fatalf("reservation has %d holds, want one per link", got)
	}
	for i, l := range links {
		want := []float64{50, 10, 30}[i]
		if l.Available() != want {
			t.Errorf("link %d avail = %v, want %v", i, l.Available(), want)
		}
	}
	if n.Available() != 10 {
		t.Fatalf("end-to-end avail = %v", n.Available())
	}
	if err := m.Release(2); err != nil {
		t.Fatal(err)
	}
	for i, l := range links {
		if l.Available() != []float64{100, 60, 80}[i] {
			t.Errorf("link %d not fully released: %v", i, l.Available())
		}
		if l.Reservations() != 0 {
			t.Errorf("link %d leaked a hold", i)
		}
	}
}

// TestNetworkReserveRollsBackOnRefusal: a refusal mid-route leaves no
// hold on the links before it.
func TestNetworkReserveRollsBackOnRefusal(t *testing.T) {
	p, n, links := chainPool(t, 100, 30, 80)
	if _, err := p.ReserveAllAtomic(1, qos.ResourceVector{n.Resource(): 50}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	for i, l := range links {
		if l.Available() != []float64{100, 30, 80}[i] {
			t.Errorf("link %d avail = %v after refusal", i, l.Available())
		}
		if l.Reservations() != 0 {
			t.Errorf("link %d leaked a reservation", i)
		}
	}
}

func TestNetworkAvailableAt(t *testing.T) {
	links := threeLinks(t, 100, 60, 80)
	n, _ := NewNetwork("net:A->B", links)
	m, _ := reserveRoute(n, 10, 20)
	_ = m.Release(20)
	if got := n.AvailableAt(5); got != 60 {
		t.Fatalf("AvailableAt(5) = %v, want 60", got)
	}
	if got := n.AvailableAt(15); got != 40 {
		t.Fatalf("AvailableAt(15) = %v, want 40", got)
	}
	if got := n.AvailableAt(25); got != 60 {
		t.Fatalf("AvailableAt(25) = %v, want 60", got)
	}
}

func TestNetworkAlphaTracksRouteMin(t *testing.T) {
	links := threeLinks(t, 100, 60, 80)
	n, _ := newNetwork("net:A->B", links, 3)
	if rep := n.Report(0); rep.Alpha != 1 || rep.Avail != 60 {
		t.Fatalf("first report = %+v", rep)
	}
	m, _ := reserveRoute(n, 1, 30)
	rep := n.Report(2)
	if rep.Avail != 30 {
		t.Fatalf("avail = %v", rep.Avail)
	}
	if rep.Alpha >= 1 {
		t.Fatalf("alpha = %v, want < 1 after drop", rep.Alpha)
	}
	_ = m.Release(3)
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork("", threeLinks(t, 1, 1, 1)); err == nil {
		t.Fatal("empty resource accepted")
	}
	if _, err := NewNetwork("net:x", nil); err == nil {
		t.Fatal("empty route accepted")
	}
	if _, err := newNetwork("net:x", threeLinks(t, 1, 1, 1), 0); err == nil {
		t.Fatal("zero window accepted")
	}
	n, _ := NewNetwork("net:x", threeLinks(t, 1, 1, 1))
	if _, err := reserveRoute(n, 0, -1); err == nil {
		t.Fatal("negative reserve accepted")
	}
}

func TestNetworkSharedLinkContention(t *testing.T) {
	// Two end-to-end resources sharing a middle link contend for it —
	// the real contention the two-level model creates.
	shared, _ := NewLocal("link:S", 100)
	a1, _ := NewLocal("link:A1", 1000)
	b1, _ := NewLocal("link:B1", 1000)
	nA, _ := NewNetwork("net:A", []*Local{a1, shared})
	nB, _ := NewNetwork("net:B", []*Local{shared, b1})

	mA, err := reserveRoute(nA, 1, 70)
	if err != nil {
		t.Fatal(err)
	}
	if nB.Available() != 30 {
		t.Fatalf("net:B avail = %v, want 30 via shared link", nB.Available())
	}
	if _, err := reserveRoute(nB, 2, 40); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("expected contention failure, got %v", err)
	}
	if _, err := reserveRoute(nB, 3, 30); err != nil {
		t.Fatalf("within-shared-capacity reserve failed: %v", err)
	}
	_ = mA.Release(4)
	if nB.Available() != 70 {
		t.Fatalf("after release net:B avail = %v", nB.Available())
	}
}

func TestNetworkAlphaFirstReportIsOne(t *testing.T) {
	n, err := NewNetwork("net:A->B", threeLinks(t, 100, 60, 80))
	if err != nil {
		t.Fatal(err)
	}
	if rep := n.Report(2); rep.Alpha != 1 {
		t.Fatalf("alpha of first report = %v, want 1", rep.Alpha)
	}
}

func TestNetworkAlphaAllZeroWindowWithRecoveredAvailability(t *testing.T) {
	// Same regression guard as the Local case, through the route-minimum
	// availability: all-zero window reports plus recovered availability
	// must give the neutral α, not +Inf.
	n, err := newNetwork("net:A->B", threeLinks(t, 100, 60, 80), 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reserveRoute(n, 0, 60) // saturates the bottleneck link
	if err != nil {
		t.Fatal(err)
	}
	n.Report(0) // route minimum 0 enters the window
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	rep := n.Report(1)
	if math.IsInf(rep.Alpha, 0) || math.IsNaN(rep.Alpha) {
		t.Fatalf("alpha = %v, want finite", rep.Alpha)
	}
	if rep.Alpha != 1 {
		t.Fatalf("alpha with all-zero window = %v, want 1 (guard)", rep.Alpha)
	}
}

func TestNetworkReserveLastLinkRefusalRollsBackAllHolds(t *testing.T) {
	// A refusal at the *last* link leaves no hold on any earlier link
	// of the route.
	p, n, links := chainPool(t, 100, 80, 30)
	if _, err := p.ReserveAllAtomic(1, qos.ResourceVector{n.Resource(): 50}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	for i, l := range links {
		if got, want := l.Available(), []float64{100, 80, 30}[i]; got != want {
			t.Errorf("link %d avail = %v after refusal, want %v", i, got, want)
		}
		if l.Reservations() != 0 {
			t.Errorf("link %d leaked a reservation", i)
		}
	}
}

// TestNetworkAvailableConsistentSnapshot is the torn-minimum regression
// test: a hold moving atomically between two links of the route (both
// link mutexes held across the move) must never make the end-to-end
// availability appear higher than any real instant exhibited. The old
// per-link locking could observe the hold on neither link and report
// the full capacity.
func TestNetworkAvailableConsistentSnapshot(t *testing.T) {
	links := threeLinks(t, 100, 100)
	l1, l2 := links[0], links[1]
	n, err := NewNetwork("net:A->B", links)
	if err != nil {
		t.Fatal(err)
	}

	// Seed: a 50-unit hold on l1. The writer below moves it back and
	// forth between l1 and l2 atomically, so the true route minimum is
	// exactly 50 at every instant.
	if _, err := l1.Reserve(0, 50); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		onFirst := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Move the hold atomically: both book locks held, in the
			// package-wide ascending seq order.
			l1.mu.Lock()
			l2.mu.Lock()
			if onFirst {
				l1.reserved -= 50
				l2.reserved += 50
			} else {
				l2.reserved -= 50
				l1.reserved += 50
			}
			onFirst = !onFirst
			l2.mu.Unlock()
			l1.mu.Unlock()
		}
	}()

	for i := 0; i < 20000; i++ {
		if got := n.Available(); got != 50 {
			close(stop)
			<-done
			t.Fatalf("iteration %d: torn minimum %g, want 50 at every instant", i, got)
		}
	}
	close(stop)
	<-done

	if got := n.AvailableAt(0); got != 50 {
		t.Fatalf("AvailableAt(0) = %g, want 50", got)
	}
}
