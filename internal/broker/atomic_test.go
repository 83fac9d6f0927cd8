package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qosres/internal/qos"
)

// resolverOf builds a resolve function over a fixed broker set.
func resolverOf(brokers ...Broker) func(string) (Broker, bool) {
	byName := make(map[string]Broker, len(brokers))
	for _, b := range brokers {
		byName[b.Resource()] = b
	}
	return func(r string) (Broker, bool) {
		b, ok := byName[r]
		return b, ok
	}
}

func mustLocal(t *testing.T, resource string, capacity float64) *Local {
	t.Helper()
	b, err := NewLocal(resource, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustNetwork(t *testing.T, resource string, links []*Local) *Network {
	t.Helper()
	n, err := NewNetwork(resource, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestReserveAtomicSuccessAndRelease(t *testing.T) {
	cpu := mustLocal(t, "cpu@A", 100)
	l1 := mustLocal(t, "link:1", 100)
	l2 := mustLocal(t, "link:2", 100)
	net := mustNetwork(t, "net:A->B", []*Local{l1, l2})
	resolve := resolverOf(cpu, net)

	m, err := ReserveAtomic(1, resolve, qos.ResourceVector{"cpu@A": 30, "net:A->B": 40})
	if err != nil {
		t.Fatalf("ReserveAtomic: %v", err)
	}
	if got := cpu.Available(); got != 70 {
		t.Fatalf("cpu available = %g, want 70", got)
	}
	for _, l := range []*Local{l1, l2} {
		if got := l.Available(); got != 60 {
			t.Fatalf("%s available = %g, want 60", l.Resource(), got)
		}
	}
	if err := m.Release(2); err != nil {
		t.Fatalf("Release: %v", err)
	}
	for _, b := range []*Local{cpu, l1, l2} {
		if got := b.Available(); got != 100 {
			t.Fatalf("%s available after release = %g, want 100", b.Resource(), got)
		}
		if n := b.Reservations(); n != 0 {
			t.Fatalf("%s has %d residual holds after release", b.Resource(), n)
		}
	}
}

func TestReserveAtomicAllOrNothingOnRefusal(t *testing.T) {
	// zz sorts after the others, so with sequential reserve-then-rollback
	// the cpu and link holds would exist transiently; validate-at-commit
	// must refuse before creating any of them.
	cpu := mustLocal(t, "cpu@A", 100)
	link := mustLocal(t, "link:1", 100)
	net := mustNetwork(t, "net:A->B", []*Local{link})
	tight := mustLocal(t, "zz@A", 10)
	resolve := resolverOf(cpu, net, tight)

	_, err := ReserveAtomic(1, resolve, qos.ResourceVector{
		"cpu@A": 30, "net:A->B": 40, "zz@A": 11,
	})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	for _, b := range []*Local{cpu, link, tight} {
		if got := b.Available(); got != b.Capacity() {
			t.Fatalf("%s available = %g after refusal, want %g", b.Resource(), got, b.Capacity())
		}
		if n := b.Reservations(); n != 0 {
			t.Fatalf("%s has %d residual holds after refusal", b.Resource(), n)
		}
	}
}

func TestReserveAtomicAggregatesSharedLinkDemand(t *testing.T) {
	// Two end-to-end resources share link:1 (capacity 100). Each amount
	// fits the link alone, but their sum does not: a per-resource check
	// would admit the plan and over-commit the link.
	shared := mustLocal(t, "link:1", 100)
	tailX := mustLocal(t, "link:2", 100)
	tailY := mustLocal(t, "link:3", 100)
	netX := mustNetwork(t, "net:A->B", []*Local{shared, tailX})
	netY := mustNetwork(t, "net:A->C", []*Local{shared, tailY})
	resolve := resolverOf(netX, netY)

	_, err := ReserveAtomic(1, resolve, qos.ResourceVector{"net:A->B": 60, "net:A->C": 60})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient on shared-link aggregate", err)
	}
	for _, l := range []*Local{shared, tailX, tailY} {
		if n := l.Reservations(); n != 0 {
			t.Fatalf("%s has %d residual holds", l.Resource(), n)
		}
	}

	// The aggregate that does fit must commit on both routes.
	m, err := ReserveAtomic(2, resolve, qos.ResourceVector{"net:A->B": 60, "net:A->C": 40})
	if err != nil {
		t.Fatalf("ReserveAtomic: %v", err)
	}
	if got := shared.Available(); got != 0 {
		t.Fatalf("shared link available = %g, want 0", got)
	}
	if err := m.Release(3); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestReserveAtomicInputErrors(t *testing.T) {
	cpu := mustLocal(t, "cpu@A", 100)
	resolve := resolverOf(cpu)

	if _, err := ReserveAtomic(1, resolve, qos.ResourceVector{"cpu@A": -1}); err == nil {
		t.Fatal("negative amount accepted")
	}
	if _, err := ReserveAtomic(1, resolve, qos.ResourceVector{"ghost": 5}); err == nil {
		t.Fatal("unknown resource accepted")
	}
	// Zero amounts are skipped, not reserved.
	m, err := ReserveAtomic(1, resolve, qos.ResourceVector{"cpu@A": 0})
	if err != nil {
		t.Fatalf("zero-amount reserve: %v", err)
	}
	if len(m.Resources()) != 0 {
		t.Fatalf("zero amount created holds: %v", m.Resources())
	}
	if cpu.Reservations() != 0 {
		t.Fatal("zero amount left a hold")
	}
}

type opaqueBroker struct{ Broker }

func (opaqueBroker) Resource() string { return "opaque" }

func TestReserveAtomicRejectsUnknownBrokerType(t *testing.T) {
	resolve := resolverOf(opaqueBroker{})
	_, err := ReserveAtomic(1, resolve, qos.ResourceVector{"opaque": 1})
	if err == nil {
		t.Fatal("opaque broker type accepted")
	}
}

func TestReserveAtomicConcurrentNoOvercommit(t *testing.T) {
	// 64 goroutines race for a pool that fits only a few of them. The
	// invariants: no broker ever over-commits, every failure leaves zero
	// residue, and the final reserved amounts equal successes × demand.
	cpu := mustLocal(t, "cpu@A", 100)
	link := mustLocal(t, "link:1", 100)
	net := mustNetwork(t, "net:A->B", []*Local{link})
	resolve := resolverOf(cpu, net)
	req := qos.ResourceVector{"cpu@A": 30, "net:A->B": 40}

	const goroutines = 64
	var wg sync.WaitGroup
	results := make(chan *MultiReservation, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := ReserveAtomic(1, resolve, req)
			if err != nil {
				if !errors.Is(err, ErrInsufficient) {
					panic(fmt.Sprintf("unexpected error: %v", err))
				}
				return
			}
			results <- m
		}()
	}
	wg.Wait()
	close(results)

	var wins []*MultiReservation
	for m := range results {
		wins = append(wins, m)
	}
	// cpu admits ⌊100/30⌋ = 3, link ⌊100/40⌋ = 2: exactly 2 sessions win.
	if len(wins) != 2 {
		t.Fatalf("%d concurrent reservations succeeded, want 2", len(wins))
	}
	if got := cpu.Available(); got != 100-2*30 {
		t.Fatalf("cpu available = %g, want %g", got, 100-2*30.0)
	}
	if got := link.Available(); got != 100-2*40 {
		t.Fatalf("link available = %g, want %g", got, 100-2*40.0)
	}
	if cpu.Reservations() != 2 || link.Reservations() != 2 {
		t.Fatalf("hold counts = cpu %d, link %d, want 2 each",
			cpu.Reservations(), link.Reservations())
	}
	for _, m := range wins {
		if err := m.Release(2); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	if cpu.Available() != 100 || link.Available() != 100 {
		t.Fatalf("availability not restored: cpu %g, link %g", cpu.Available(), link.Available())
	}
}

func TestPoolReserveAllAtomic(t *testing.T) {
	p := testPool(t)
	netAB, err := p.Network("H1", "D2")
	if err != nil {
		t.Fatal(err)
	}
	req := qos.ResourceVector{"cpu@H1": 25, netAB.Resource(): 10}
	m, err := p.ReserveAllAtomic(1, req)
	if err != nil {
		t.Fatalf("ReserveAllAtomic: %v", err)
	}
	cpu, _ := p.Get("cpu@H1")
	if got := cpu.Available(); got != 75 {
		t.Fatalf("cpu@H1 available = %g, want 75", got)
	}
	if err := m.Release(2); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := cpu.Available(); got != 100 {
		t.Fatalf("cpu@H1 available after release = %g, want 100", got)
	}
}
