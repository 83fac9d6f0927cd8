package broker

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"qosres/internal/qos"
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
// commits — a deadlock invitation. The stripe acquisition rank is a
// total order, so the hammer must run to completion.
func TestDuplicateResourceIDLockOrder(t *testing.T) {
	dup1 := mustLocal(t, "gpu", 100) // same resource ID, distinct brokers
	dup2 := mustLocal(t, "gpu", 100)
	if dup1.StripeOrder() == dup2.StripeOrder() {
		t.Fatalf("distinct standalone brokers share a stripe rank %d", dup1.StripeOrder())
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

// TestReserveBatchPerMemberOutcomes: a round whose members cannot all
// fit admits a prefix-feasible subset, refuses the rest with
// ErrInsufficient, and leaves no residue from refused members.
func TestReserveBatchPerMemberOutcomes(t *testing.T) {
	cpu := mustLocal(t, "cpu", 100)
	mem := mustLocal(t, "mem", 100)
	resolve := resolverOf(cpu, mem)

	reqs := []qos.ResourceVector{
		{"cpu": 60, "mem": 10}, // fits
		{"cpu": 60, "mem": 10}, // cpu exhausted by member 0
		{"cpu": 30, "mem": 10}, // fits in what member 1 did not take
		{"cpu": 0, "mem": -1},  // invalid, refused at resolution
	}
	out, errs, stats := ReserveBatch(0, resolve, reqs)

	if out[0] == nil || errs[0] != nil {
		t.Fatalf("member 0 should be admitted: %v", errs[0])
	}
	if out[1] != nil || !errors.Is(errs[1], ErrInsufficient) {
		t.Fatalf("member 1 should be refused with ErrInsufficient, got res=%v err=%v", out[1], errs[1])
	}
	if out[2] == nil || errs[2] != nil {
		t.Fatalf("member 2 should be admitted after member 1's refusal: %v", errs[2])
	}
	if out[3] != nil || errs[3] == nil || errors.Is(errs[3], ErrInsufficient) {
		t.Fatalf("member 3 should be refused at resolution, got res=%v err=%v", out[3], errs[3])
	}
	if stats.Members != 4 || stats.Admitted != 2 {
		t.Fatalf("stats %+v: want Members 4, Admitted 2", stats)
	}
	if stats.BrokersTouched != 2 {
		t.Fatalf("stats %+v: want BrokersTouched 2", stats)
	}
	// Three resolvable members each touch both brokers' stripes; the
	// round acquires each distinct stripe once.
	if stats.StripesSolo <= stats.StripesLocked {
		t.Fatalf("stats %+v: batching should amortize stripe acquisitions", stats)
	}

	if got := cpu.Reserved(); got != 90 {
		t.Fatalf("cpu book %g, want 90 (members 0 and 2 only)", got)
	}
	if got := mem.Reserved(); got != 20 {
		t.Fatalf("mem book %g, want 20", got)
	}
	// Refused members left nothing to release; admitted ones drain
	// back to an empty book.
	if err := out[0].Release(1); err != nil {
		t.Fatal(err)
	}
	if err := out[2].Release(1); err != nil {
		t.Fatal(err)
	}
	if cpu.Reserved() != 0 || mem.Reserved() != 0 || cpu.Reservations() != 0 || mem.Reservations() != 0 {
		t.Fatalf("residue after drain: cpu %g/%d mem %g/%d",
			cpu.Reserved(), cpu.Reservations(), mem.Reserved(), mem.Reservations())
	}
}

// TestReserveBatchNetworkSharedLinks: network members expand to their
// route links and aggregate shared-segment demand within and across
// members of the round.
func TestReserveBatchNetworkSharedLinks(t *testing.T) {
	l1 := mustLocal(t, "link:L1", 100)
	l2 := mustLocal(t, "link:L2", 100)
	n1 := mustNetwork(t, "net:A->B", []*Local{l1, l2})
	n2 := mustNetwork(t, "net:A->C", []*Local{l1})
	resolve := resolverOf(n1, n2)

	reqs := []qos.ResourceVector{
		{"net:A->B": 40, "net:A->C": 30}, // l1: 70, l2: 40
		{"net:A->B": 30},                 // l1: 100 total — exactly full
		{"net:A->C": 1},                  // l1 exhausted
	}
	out, errs, _ := ReserveBatch(0, resolve, reqs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("members 0/1 should fit: %v, %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrInsufficient) {
		t.Fatalf("member 2 should hit the shared-link bottleneck, got %v", errs[2])
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

// TestReserveBatchMatchesSerialized: for any batch, the resulting book
// state must be exactly what an equivalent serialized admission order
// (the batch order) produces — same hold multisets, same reserved
// totals, same per-member outcomes.
func TestReserveBatchMatchesSerialized(t *testing.T) {
	build := func() (*Local, *Local, func(string) (Broker, bool)) {
		cpu := mustLocal(t, "cpu", 170)
		net := mustLocal(t, "net", 120)
		return cpu, net, resolverOf(cpu, net)
	}
	reqs := []qos.ResourceVector{
		{"cpu": 55.5, "net": 20},
		{"cpu": 80, "net": 90},
		{"cpu": 55.5, "net": 20}, // refused: cpu would reach 191
		{"cpu": 34, "net": 9.75},
	}

	bCPU, bNet, bResolve := build()
	_, bErrs, _ := ReserveBatch(0, bResolve, reqs)

	sCPU, sNet, sResolve := build()
	sErrs := make([]error, len(reqs))
	for i, r := range reqs {
		_, sErrs[i] = ReserveAtomic(0, sResolve, r)
	}

	for i := range reqs {
		if (bErrs[i] == nil) != (sErrs[i] == nil) {
			t.Fatalf("member %d: batch err %v, serialized err %v", i, bErrs[i], sErrs[i])
		}
	}
	for _, pair := range [][2]*Local{{bCPU, sCPU}, {bNet, sNet}} {
		b, s := pair[0], pair[1]
		if fmt.Sprintf("%v", b.HoldAmounts()) != fmt.Sprintf("%v", s.HoldAmounts()) {
			t.Fatalf("%s hold multisets diverge: batch %v, serialized %v",
				b.Resource(), b.HoldAmounts(), s.HoldAmounts())
		}
		if b.Reserved() != s.Reserved() {
			t.Fatalf("%s reserved diverges: batch %g, serialized %g", b.Resource(), b.Reserved(), s.Reserved())
		}
	}
}

// TestEpochStamping: every availability-affecting mutation advances the
// broker's epoch, reports carry it, and an untouched book keeps its
// epoch.
func TestEpochStamping(t *testing.T) {
	b := mustLocal(t, "cpu", 100)
	e0 := b.Epoch()

	id, err := b.Reserve(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e := b.Epoch(); e != e0+1 {
		t.Fatalf("reserve: epoch %d, want %d", e, e0+1)
	}
	rep := b.Report(1)
	if rep.Epoch != e0+1 {
		t.Fatalf("report epoch %d, want %d", rep.Epoch, e0+1)
	}
	// Reports and availability reads don't move the book.
	if e := b.Epoch(); e != e0+1 {
		t.Fatalf("report moved the epoch to %d", e)
	}
	if err := b.Release(2, id); err != nil {
		t.Fatal(err)
	}
	if e := b.Epoch(); e != e0+2 {
		t.Fatalf("release: epoch %d, want %d", e, e0+2)
	}
	b.Fail(3)
	b.Recover(4)
	if err := b.SetCapacity(5, 80); err != nil {
		t.Fatal(err)
	}
	if e := b.Epoch(); e != e0+5 {
		t.Fatalf("fail+recover+setcapacity: epoch %d, want %d", e, e0+5)
	}
}

// TestPoolStripeSharing: a pool shards its brokers across its stripe
// set — with one stripe every broker shares it; batches over a
// single-stripe pool still behave correctly.
func TestPoolStripeSharing(t *testing.T) {
	p := NewPoolStriped(nil, DefaultAlphaWindow, 1)
	if p.StripeCount() != 1 {
		t.Fatalf("stripe count %d, want 1", p.StripeCount())
	}
	a, err := p.AddLocal("cpu", "H1", 50)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := p.AddLocal("mem", "H1", 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.stripe != bb.stripe {
		t.Fatal("single-stripe pool gave brokers distinct stripes")
	}
	out, errs, stats := p.ReserveBatchAll(0, []qos.ResourceVector{
		{LocalResourceID("cpu", "H1"): 30, LocalResourceID("mem", "H1"): 30},
		{LocalResourceID("cpu", "H1"): 30},
	})
	if errs[0] != nil || !errors.Is(errs[1], ErrInsufficient) {
		t.Fatalf("outcomes: %v, %v", errs[0], errs[1])
	}
	if stats.StripesLocked != 1 {
		t.Fatalf("stats %+v: want one stripe locked", stats)
	}
	if err := out[0].Release(1); err != nil {
		t.Fatal(err)
	}
}

// TestReserveBatchConcurrentRounds hammers overlapping batches from
// racing goroutines and checks the no-overcommit invariant on every
// book afterward; run with -race this also proves the single-sweep
// locking publishes every hold safely.
func TestReserveBatchConcurrentRounds(t *testing.T) {
	cpu := mustLocal(t, "cpu", 500)
	mem := mustLocal(t, "mem", 500)
	resolve := resolverOf(cpu, mem)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reqs := []qos.ResourceVector{
					{"cpu": 90, "mem": 10},
					{"cpu": 10, "mem": 90},
					{"cpu": 50, "mem": 50},
				}
				out, _, _ := ReserveBatch(Time(i), resolve, reqs)
				if cpu.Reserved() > 500 || mem.Reserved() > 500 {
					t.Errorf("overcommit: cpu %g mem %g", cpu.Reserved(), mem.Reserved())
				}
				for _, m := range out {
					if m != nil {
						_ = m.Release(Time(i))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if cpu.Reserved() != 0 || mem.Reserved() != 0 {
		t.Fatalf("residue after drain: cpu %g mem %g", cpu.Reserved(), mem.Reserved())
	}
}
