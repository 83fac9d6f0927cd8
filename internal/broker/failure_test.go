package broker

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

func TestFailAndRecover(t *testing.T) {
	b, err := NewLocal("cpu@H1", 100)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Reserve(1, 40)
	if err != nil {
		t.Fatal(err)
	}

	b.Fail(2)
	if !b.published().failed {
		t.Fatal("broker not failed")
	}
	if got := b.Available(); got != 0 {
		t.Fatalf("failed broker available %g, want 0", got)
	}
	if _, err := b.Reserve(3, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("reserve on failed broker: %v, want ErrInsufficient", err)
	}
	// The book of holds survives the failure; release works across it.
	if b.Reservations() != 1 {
		t.Fatalf("failure dropped holds: %d", b.Reservations())
	}
	if rep := b.Report(3); rep.Avail != 0 {
		t.Fatalf("failed report avail %g, want 0", rep.Avail)
	}
	// The change log records the outage window.
	if got := b.AvailableAt(2.5); got != 0 {
		t.Fatalf("AvailableAt during outage = %g, want 0", got)
	}

	b.Recover(4)
	if got := b.Available(); got != 60 {
		t.Fatalf("recovered available %g, want 60", got)
	}
	if got := b.AvailableAt(1.5); got != 60 {
		t.Fatalf("AvailableAt before outage = %g, want 60", got)
	}
	if err := b.Release(5, id); err != nil {
		t.Fatal(err)
	}
	if got := b.Available(); got != 100 {
		t.Fatalf("drained available %g, want 100", got)
	}
}

func TestCapacityShrinkNeverEvictsButBlocksAdmission(t *testing.T) {
	b, err := NewLocal("cpu@H1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reserve(1, 80); err != nil {
		t.Fatal(err)
	}
	if err := b.SetCapacity(2, 50); err != nil {
		t.Fatal(err)
	}
	// The hold survives the collapse; availability goes negative and
	// admission refuses everything until the overhang is released.
	if b.Reservations() != 1 {
		t.Fatalf("shrink evicted holds: %d", b.Reservations())
	}
	if got := b.Available(); got != -30 {
		t.Fatalf("collapsed available %g, want -30", got)
	}
	if _, err := b.Reserve(3, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("reserve on collapsed broker: %v, want ErrInsufficient", err)
	}
	if err := b.SetCapacity(4, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := b.SetCapacity(4, 100); err != nil {
		t.Fatal(err)
	}
	if got := b.Available(); got != 20 {
		t.Fatalf("restored available %g, want 20", got)
	}
}

func TestAtomicReserveRefusesFailedBroker(t *testing.T) {
	pool := NewPool(nil)
	a, err := pool.addLocal("cpu@A", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.addLocal("cpu@B", 100); err != nil {
		t.Fatal(err)
	}
	a.Fail(1)
	_, err = pool.ReserveAllAtomic(2, qos.ResourceVector{"cpu@A": 10, "cpu@B": 10})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("atomic reserve across failed broker: %v, want ErrInsufficient", err)
	}
	// No residue on the healthy broker.
	if got, _ := pool.Get("cpu@B"); got.Available() != 100 {
		t.Fatalf("healthy broker touched: %g", got.Available())
	}
}

func TestLeaseExpiryReclaimsLocalHold(t *testing.T) {
	b, err := NewLocal("cpu@H1", 100)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Reserve(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setLease(id, 10); err != nil {
		t.Fatal(err)
	}
	if n := b.ExpireLeases(9); n != 0 {
		t.Fatalf("expired %d leases before expiry", n)
	}
	if n := b.ExpireLeases(10); n != 1 {
		t.Fatalf("expired %d leases at expiry, want 1", n)
	}
	if got := b.Available(); got != 100 {
		t.Fatalf("capacity not reclaimed: %g", got)
	}
	// The hold is gone: a late release (the crashed proxy coming back)
	// observes ErrUnknownReservation.
	if err := b.Release(11, id); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("release after expiry: %v, want ErrUnknownReservation", err)
	}
	// Renewal after expiry reports the loss the same way.
	if err := b.setLease(id, 20); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("renew after expiry: %v, want ErrUnknownReservation", err)
	}
}

func TestLeaseRenewalDefersExpiry(t *testing.T) {
	b, err := NewLocal("cpu@H1", 100)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Reserve(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setLease(id, 10); err != nil {
		t.Fatal(err)
	}
	// Renew before the sweep: the old expiry no longer applies.
	if err := b.setLease(id, 20); err != nil {
		t.Fatal(err)
	}
	if n := b.ExpireLeases(10); n != 0 {
		t.Fatalf("renewed lease reclaimed: %d", n)
	}
	// Clearing the lease makes the hold permanent again.
	if err := b.setLease(id, 0); err != nil {
		t.Fatal(err)
	}
	if n := b.ExpireLeases(1e9); n != 0 {
		t.Fatalf("permanent hold reclaimed: %d", n)
	}
	if err := b.Release(30, id); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseRenewalRacingExpiry pins the renewal/expiry race contract:
// under concurrent renewals and sweeps, either the renewal wins (the
// hold survives past the old expiry) or the sweep wins (the renewal
// observes ErrUnknownReservation) — and in every interleaving the
// reserved accounting stays consistent: reclaimed exactly once, never
// negative, never double-counted.
func TestLeaseRenewalRacingExpiry(t *testing.T) {
	const rounds = 200
	for round := 0; round < rounds; round++ {
		b, err := NewLocal("cpu@H1", 100)
		if err != nil {
			t.Fatal(err)
		}
		id, err := b.Reserve(0, 30)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.setLease(id, 1); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		var renewErr error
		expired := 0
		go func() {
			defer wg.Done()
			renewErr = b.setLease(id, 2) // renew past the sweep instant
		}()
		go func() {
			defer wg.Done()
			expired = b.ExpireLeases(1)
		}()
		wg.Wait()

		switch {
		case renewErr == nil && expired == 0:
			// Renewal won; the hold must still be live and releasable.
			if b.Reservations() != 1 || b.Available() != 70 {
				t.Fatalf("round %d: renewal won but hold inconsistent: %d holds, %g available",
					round, b.Reservations(), b.Available())
			}
			if err := b.Release(3, id); err != nil {
				t.Fatal(err)
			}
		case errors.Is(renewErr, ErrUnknownReservation) && expired == 1:
			// Sweep won; the capacity is reclaimed exactly once.
			if b.Reservations() != 0 || b.Available() != 100 {
				t.Fatalf("round %d: sweep won but broker inconsistent: %d holds, %g available",
					round, b.Reservations(), b.Available())
			}
		case renewErr == nil && expired == 1:
			// Renewal landed first, then the sweep ran at a now-stale
			// instant but the renewed expiry (2) is still > 1, so this
			// combination means the sweep reclaimed a renewed hold.
			t.Fatalf("round %d: sweep reclaimed a renewed lease", round)
		default:
			t.Fatalf("round %d: impossible outcome: renewErr=%v expired=%d", round, renewErr, expired)
		}
		if got := b.Available(); got != 100 {
			t.Fatalf("round %d: final availability %g, want 100", round, got)
		}
	}
}

func TestNetworkLeaseExpiryReleasesLinks(t *testing.T) {
	l1, _ := NewLocal("link:L1", 100)
	l2, _ := NewLocal("link:L2", 100)
	n, err := NewNetwork("net:A->B", []*Local{l1, l2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reserveRoute(n, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLease(5); err != nil {
		t.Fatal(err)
	}
	// Every link hold carries the reservation's lease: nothing lapses
	// early, and each link's own sweep reclaims its share at the expiry.
	if got := l1.ExpireLeases(4); got != 0 {
		t.Fatalf("link sweep before the expiry reclaimed %d holds", got)
	}
	for _, l := range []*Local{l1, l2} {
		if got := l.ExpireLeases(5); got != 1 {
			t.Fatalf("%s sweep reclaimed %d, want 1", l.Resource(), got)
		}
	}
	if l1.Available() != 100 || l2.Available() != 100 || n.Available() != 100 {
		t.Fatalf("links not reclaimed: %g, %g", l1.Available(), l2.Available())
	}
	// A late release of the swept reservation is benign.
	if err := m.Release(6); err != nil {
		t.Fatalf("release after lease expiry: %v", err)
	}
}

func TestMultiReservationLeaseAndTolerantRelease(t *testing.T) {
	topology := topo.MustNew(
		[]topo.HostID{"A", "B"},
		[]topo.Link{{ID: "L1", A: "A", B: "B"}},
	)
	pool := NewPool(topology)
	if _, err := pool.AddLocal("cpu", "A", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.AddLink("L1", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Network("A", "B"); err != nil {
		t.Fatal(err)
	}
	req := qos.ResourceVector{"cpu@A": 10, NetResourceID("A", "B"): 20}
	m, err := pool.ReserveAllAtomic(0, req)
	if err != nil {
		t.Fatal(err)
	}

	// The network resource is held as its link: the reservation holds
	// capacity on the cpu and on link:L1, and on nothing else.
	if got, want := m.Resources(), []string{"cpu@A", "link:L1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resources = %v, want %v", got, want)
	}

	if err := m.SetLease(5); err != nil {
		t.Fatal(err)
	}
	if got := pool.ExpireLeases(5); got != 2 {
		t.Fatalf("pool sweep reclaimed %d leases, want 2 (local + link)", got)
	}
	// A late Release of the reclaimed reservation is benign: every part
	// is already gone, which the leased reservation tolerates.
	if err := m.Release(6); err != nil {
		t.Fatalf("release after expiry on leased reservation: %v", err)
	}
	for _, b := range pool.LocalBrokers() {
		if b.Reservations() != 0 || b.Available() != b.Capacity() {
			t.Fatalf("%s not whole after expiry: %d holds, %g available",
				b.Resource(), b.Reservations(), b.Available())
		}
	}
}
