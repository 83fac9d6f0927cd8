package broker

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

// TestExactValidationNoEpsilonOvercommit is the epsilon-drift
// regression test: at exactly-full capacity an eps-sized (1e-9) demand
// must be refused, no matter how many admit/release cycles preceded it.
// The old check (amount <= avail + availEpsilon) admitted one epsilon
// of net new demand per admission at the boundary.
func TestExactValidationNoEpsilonOvercommit(t *testing.T) {
	const capacity = 200.0
	b := mustLocal(t, "cpu", capacity)

	for cycle := 0; cycle < 1000; cycle++ {
		// Fill to exactly the capacity.
		id, err := b.Reserve(Time(cycle), capacity)
		if err != nil {
			t.Fatalf("cycle %d: full-capacity reserve refused: %v", cycle, err)
		}
		// Any eps-scale net new demand at the boundary must be refused.
		if extra, err := b.Reserve(Time(cycle), 1e-9); err == nil {
			t.Fatalf("cycle %d: eps demand admitted at full capacity (id %d, reserved %g > cap %g)",
				cycle, extra, b.Reserved(), capacity)
		} else if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("cycle %d: want ErrInsufficient, got %v", cycle, err)
		}
		if got := b.Reserved(); got > capacity {
			t.Fatalf("cycle %d: book over-committed: reserved %g > capacity %g", cycle, got, capacity)
		}
		if err := b.Release(Time(cycle), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Reserved(); got != 0 {
		t.Fatalf("drained book still holds %g", got)
	}
}

// TestExactValidationAtomicPath covers the same boundary through
// ReserveAtomic: a plan whose aggregate demand exceeds a broker's
// remaining capacity by one epsilon must be refused.
func TestExactValidationAtomicPath(t *testing.T) {
	b := mustLocal(t, "cpu", 150)
	resolve := resolverOf(b)

	full, err := ReserveAtomic(0, resolve, qos.ResourceVector{"cpu": 150})
	if err != nil {
		t.Fatalf("exact-fit plan refused: %v", err)
	}
	if _, err := ReserveAtomic(0, resolve, qos.ResourceVector{"cpu": 1e-9}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("eps overcommit not refused: %v", err)
	}
	if err := full.Release(0); err != nil {
		t.Fatal(err)
	}
}

// TestExactValidationForgivesFloatNoise: requirements that sum to the
// capacity up to genuine float64 rounding (a relative error around
// 1e-16 per addition) must still be admitted — the exactness fix
// refuses net new demand, not arithmetic noise.
func TestExactValidationForgivesFloatNoise(t *testing.T) {
	const capacity = 300.0
	b := mustLocal(t, "cpu", capacity)
	// 300/0.3 = 1000 holds of 0.3: the running float64 sum drifts a few
	// ULPs around the exact value; every hold must still be admitted.
	const amount = 0.3
	n := int(math.Round(capacity / amount))
	for i := 0; i < n; i++ {
		if _, err := b.Reserve(0, amount); err != nil {
			t.Fatalf("hold %d/%d refused with float-noise sum (reserved %.17g): %v", i, n, b.Reserved(), err)
		}
	}
}

// TestDuplicateResourceIDLockOrder registers two DISTINCT brokers that
// share a resource ID and hammers atomic plans over both from racing
// goroutines. The old comparator (resource-ID only) was not strict-weak
// for this pair, leaving the lock order unspecified between two racing
// commits — a deadlock invitation. Books lock in ascending seq, the
// brokers' process-wide registration rank, which is a total order, so
// the hammer must run to completion.
func TestDuplicateResourceIDLockOrder(t *testing.T) {
	dup1 := mustLocal(t, "gpu", 100) // same resource ID, distinct brokers
	dup2 := mustLocal(t, "gpu", 100)
	if dup1.seq == dup2.seq {
		t.Fatalf("distinct brokers share the lock rank %d", dup1.seq)
	}

	// Two resolvers exposing the duplicate-ID pair under different
	// names, with the pair order swapped: goroutine A resolves a→dup1,
	// b→dup2; goroutine B resolves a→dup2, b→dup1. Both plans touch
	// both brokers, so an order-unstable sort could lock them in
	// opposite orders.
	resolveA := func(r string) (Broker, bool) {
		switch r {
		case "a":
			return dup1, true
		case "b":
			return dup2, true
		}
		return nil, false
	}
	resolveB := func(r string) (Broker, bool) {
		switch r {
		case "a":
			return dup2, true
		case "b":
			return dup1, true
		}
		return nil, false
	}

	req := qos.ResourceVector{"a": 1, "b": 2}
	var wg sync.WaitGroup
	for g, resolve := range []func(string) (Broker, bool){resolveA, resolveB} {
		wg.Add(1)
		go func(g int, resolve func(string) (Broker, bool)) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m, err := ReserveAtomic(Time(i), resolve, req)
				if err != nil {
					continue // refusal under contention is fine; deadlock is not
				}
				_ = m.Release(Time(i))
			}
		}(g, resolve)
	}
	wg.Wait()

	if dup1.Reserved() != 0 || dup2.Reserved() != 0 {
		t.Fatalf("residue after drain: dup1 %g, dup2 %g", dup1.Reserved(), dup2.Reserved())
	}
}

// TestReserveBatchNetworkSharedLinks: each member of a batch commits
// by itself, expanding its network resources to their route links and
// aggregating the demand on a link shared by two routes, and the batch
// counts one book lock per distinct book of each member.
func TestReserveBatchNetworkSharedLinks(t *testing.T) {
	p, _, links := chainPool(t, 100, 100, 100)
	l1, l2 := links[0], links[1]
	for _, to := range []topo.HostID{"B", "C"} {
		if _, err := p.Network("A", to); err != nil {
			t.Fatal(err)
		}
	}

	reqs := []qos.ResourceVector{
		{"net:A->C": 40, "net:A->B": 30}, // l1: 70, l2: 40
		{"net:A->C": 30},                 // l1: 100 total — exactly full
		{"net:A->B": 1},                  // l1 exhausted
	}
	out, errs, stats := p.ReserveBatchAll(0, reqs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("members 0/1 should fit: %v, %v", errs[0], errs[1])
	}
	if out[2] != nil || !errors.Is(errs[2], ErrInsufficient) {
		t.Fatalf("member 2 should hit the shared-link bottleneck, got %v", errs[2])
	}
	if stats.StripesLocked != 5 {
		t.Fatalf("stats %+v: want 5 book locks (2 + 2 + 1)", stats)
	}
	if got := l1.Reserved(); got != 100 {
		t.Fatalf("shared link book %g, want 100", got)
	}
	if got := l2.Reserved(); got != 70 {
		t.Fatalf("l2 book %g, want 70", got)
	}
	_ = out[0].Release(1)
	_ = out[1].Release(1)
	if l1.Reserved() != 0 || l2.Reserved() != 0 {
		t.Fatalf("residue after drain: l1 %g l2 %g", l1.Reserved(), l2.Reserved())
	}
}

// TestEpochStamping: every availability-affecting mutation advances the
// broker's epoch, reports carry it, and an untouched book keeps its
// epoch.
func TestEpochStamping(t *testing.T) {
	b := mustLocal(t, "cpu", 100)
	e0 := b.published().epoch

	id, err := b.Reserve(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e := b.published().epoch; e != e0+1 {
		t.Fatalf("reserve: epoch %d, want %d", e, e0+1)
	}
	rep := b.Report(1)
	if rep.Epoch != e0+1 {
		t.Fatalf("report epoch %d, want %d", rep.Epoch, e0+1)
	}
	// Reports and availability reads don't move the book.
	if e := b.published().epoch; e != e0+1 {
		t.Fatalf("report moved the epoch to %d", e)
	}
	if err := b.Release(2, id); err != nil {
		t.Fatal(err)
	}
	if e := b.published().epoch; e != e0+2 {
		t.Fatalf("release: epoch %d, want %d", e, e0+2)
	}
	b.Fail(3)
	b.Recover(4)
	if err := b.SetCapacity(5, 80); err != nil {
		t.Fatal(err)
	}
	if e := b.published().epoch; e != e0+5 {
		t.Fatalf("fail+recover+setcapacity: epoch %d, want %d", e, e0+5)
	}
}

// TestReserveAtomicAllocs pins the commit's allocations on a 5-part
// figure-9 plan, three CPUs and two one-link routes: ReserveAllAtomic
// plus Release may cost no more than the 16 allocations of the
// sequential reserve-then-rollback path it replaced. Ten of them are
// the published records of the ten book mutations.
func TestReserveAtomicAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	p := testPool(t)
	for _, r := range [][2]topo.HostID{{"H1", "H2"}, {"H2", "H3"}} {
		if _, err := p.Network(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	req := qos.ResourceVector{
		"cpu@H1": 10, "cpu@H2": 10, "cpu@H3": 10,
		"net:H1->H2": 5, "net:H2->H3": 5,
	}
	cycle := func() {
		m, err := p.ReserveAllAtomic(1, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.parts) != 5 {
			t.Fatalf("plan holds %d parts, want 5", len(m.parts))
		}
		if err := m.Release(1); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("ReserveAllAtomic+Release: %g allocations", allocs)
	if allocs > 16 {
		t.Fatalf("ReserveAllAtomic+Release costs %g allocations, want <= 16", allocs)
	}
}

// TestReserveAtomicCrossOrderStress races atomic commits that name the
// same books in opposite orders — two resolvers swap which name maps to
// which book, and two routes cross the same links in opposite
// directions — and share route links with a third route, against
// historical Network.AvailableAt reads, which lock every book of a
// route at once. Every book locks in ascending seq, so the run must
// finish (no deadlock), no book may ever hold more than its capacity,
// and the books must drain to exactly empty.
func TestReserveAtomicCrossOrderStress(t *testing.T) {
	cpu := mustLocal(t, "cpu", 500)
	mem := mustLocal(t, "mem", 500)
	l1 := mustLocal(t, "link:L1", 300)
	l2 := mustLocal(t, "link:L2", 300)
	l3 := mustLocal(t, "link:L3", 300)
	forward := mustNetwork(t, "net:A->C", []*Local{l1, l2})
	backward := mustNetwork(t, "net:C->A", []*Local{l2, l1})
	branch := mustNetwork(t, "net:A->D", []*Local{l1, l3})
	books := []*Local{cpu, mem, l1, l2, l3}

	resolvers := []func(string) (Broker, bool){
		resolverOf(cpu, mem, forward, backward, branch),
		func(r string) (Broker, bool) {
			switch r {
			case "cpu":
				return mem, true
			case "mem":
				return cpu, true
			case "net:A->C":
				return backward, true
			case "net:C->A":
				return forward, true
			}
			return resolverOf(branch)(r)
		},
	}
	reqs := []qos.ResourceVector{
		{"cpu": 90, "mem": 10, "net:A->C": 40},
		{"cpu": 10, "mem": 90, "net:C->A": 40, "net:A->D": 30},
		{"cpu": 50, "mem": 50, "net:A->C": 20, "net:A->D": 60},
	}

	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	errs := make(chan string, workers+2)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, n := range []*Network{forward, branch} {
		readers.Add(1)
		go func(n *Network) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Time 0 predates every mutation, so the read takes the
				// locked log walk over all the route's books.
				if got := n.AvailableAt(0); got != 300 {
					errs <- fmt.Sprintf("%s AvailableAt(0) = %g, want 300", n.Resource(), got)
					return
				}
			}
		}(n)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resolve := resolvers[w%2]
			for i := 0; i < rounds; i++ {
				now := Time(i + 1)
				m, err := ReserveAtomic(now, resolve, reqs[(w+i)%len(reqs)])
				if err != nil && !errors.Is(err, ErrInsufficient) {
					errs <- err.Error()
					return
				}
				for _, b := range books {
					if r := b.Reserved(); r > b.Capacity() {
						errs <- fmt.Sprintf("%s over-committed: %g > %g", b.Resource(), r, b.Capacity())
						return
					}
				}
				if m != nil {
					if err := m.Release(now); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
		}(w)
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("atomic commits deadlocked")
	}
	close(stop)
	readers.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, b := range books {
		if b.Reserved() != 0 || b.Reservations() != 0 {
			t.Errorf("%s residue after drain: %g reserved in %d holds", b.Resource(), b.Reserved(), b.Reservations())
		}
	}
}
