package broker

import (
	"reflect"
	"testing"

	"qosres/internal/qos"
	"qosres/internal/topo"
)

// restoreFixture builds a small pool with one cpu broker and one
// network route, reserving one hold on the cpu and one on every link of
// the route, under lease.
func restoreFixture(t *testing.T) (*Pool, *MultiReservation, *Local, *Network) {
	t.Helper()
	top := topo.Figure9()
	pool := NewPool(top)
	cpu, err := pool.AddLocal("cpu", topo.ServerHost(1), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range top.Links() {
		if _, err := pool.AddLink(l.ID, 10); err != nil {
			t.Fatal(err)
		}
	}
	net, err := pool.Network(topo.ServerHost(2), topo.ServerHost(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pool.ReserveAllAtomic(1, qos.ResourceVector{cpu.Resource(): 2.5, net.Resource(): 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLease(20); err != nil {
		t.Fatal(err)
	}
	return pool, m, cpu, net
}

// bookShape snapshots the hold amounts of every book the reservation
// holds capacity on.
func bookShape(pool *Pool, m *MultiReservation) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range m.Resources() {
		if b, ok := pool.Get(r); ok {
			out[r] = b.(*Local).HoldAmounts()
		}
	}
	return out
}

// hostCrashResolver resolves through the pool the way a host restarting
// alone does: cpu is the host's own book (wiped by the crash), every
// other resource is a link book that survived it.
func hostCrashResolver(pool *Pool, cpu *Local) func(string) (*Local, bool, bool) {
	return func(r string) (*Local, bool, bool) {
		b, ok := pool.Get(r)
		if !ok {
			return nil, false, false
		}
		l := b.(*Local)
		return l, l != cpu, true
	}
}

// TestExportRestoreRoundTrip proves a wiped book restored from exports
// is byte-identical to the pre-crash one: same hold IDs, same amounts,
// same lease expiries, and the restored handle still releases cleanly,
// link holds included.
func TestExportRestoreRoundTrip(t *testing.T) {
	pool, m, cpu, net := restoreFixture(t)
	before := bookShape(pool, m)
	exports := m.Export()
	if want := 1 + len(net.Links()); len(exports) != want {
		t.Fatalf("exported %d holds, want %d (cpu plus one per link)", len(exports), want)
	}

	// Crash: the owning host forgets its cpu book; the link brokers
	// (owned by no host) keep their holds.
	cpu.Wipe(2)
	if cpu.Reservations() != 0 {
		t.Fatal("wipe left holds behind")
	}
	for _, l := range net.Links() {
		if l.Reservations() != 1 {
			t.Fatalf("link %s lost its hold on wipe", l.Resource())
		}
	}

	restored, err := RestoreMulti(2, hostCrashResolver(pool, cpu), exports, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := bookShape(pool, restored); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored book differs:\n got %v\nwant %v", got, before)
	}
	if !reflect.DeepEqual(restored.Export(), exports) {
		t.Fatalf("re-export differs:\n got %+v\nwant %+v", restored.Export(), exports)
	}
	// The restored handle must release the exact original holds,
	// including the surviving link holds, leaving everything empty.
	if err := restored.Release(3); err != nil {
		t.Fatal(err)
	}
	for _, b := range pool.LocalBrokers() {
		if b.Reservations() != 0 {
			t.Fatalf("%s kept %d holds after restored release", b.Resource(), b.Reservations())
		}
	}
}

// TestRestoreIdempotent proves re-restoring existing holds is a no-op:
// amounts are not double-counted and IDs stay stable.
func TestRestoreIdempotent(t *testing.T) {
	pool, m, cpu, net := restoreFixture(t)
	exports := m.Export()
	// Restore over a live (never wiped) book: nothing should change.
	wiped := func(r string) (*Local, bool, bool) {
		b, ok := pool.Get(r)
		if !ok {
			return nil, false, false
		}
		return b.(*Local), false, true
	}
	if _, err := RestoreMulti(2, wiped, exports, true); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Reserved(); got != 2.5 {
		t.Fatalf("reserved doubled on idempotent restore: %g", got)
	}
	for _, l := range net.Links() {
		if l.Reservations() != 1 || l.Reserved() != 0.75 {
			t.Fatalf("link %s holds doubled: %d holds, %g reserved", l.Resource(), l.Reservations(), l.Reserved())
		}
	}
}

// TestRestoreReattachesOnlySurvivingHolds: a link hold released while
// its host was down (a teardown racing the crash) is not re-created by
// the host's replay — its capacity may already belong to someone else —
// and the restored reservation simply lacks it.
func TestRestoreReattachesOnlySurvivingHolds(t *testing.T) {
	pool, m, cpu, net := restoreFixture(t)
	exports := m.Export()
	cpu.Wipe(2)
	links := net.Links()
	gone := exports[len(exports)-1]
	if err := links[len(links)-1].Release(2, gone.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreMulti(3, hostCrashResolver(pool, cpu), exports, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(restored.Resources()), len(exports)-1; got != want {
		t.Fatalf("restored %d holds, want %d", got, want)
	}
	if n := links[len(links)-1].Reservations(); n != 0 {
		t.Fatalf("released link hold re-created: %d holds", n)
	}
	if cpu.Reserved() != 2.5 {
		t.Fatalf("wiped cpu hold not restored: %g reserved", cpu.Reserved())
	}
	if err := restored.Release(4); err != nil {
		t.Fatal(err)
	}
	for _, b := range pool.LocalBrokers() {
		if b.Reservations() != 0 {
			t.Fatalf("%s kept %d holds", b.Resource(), b.Reservations())
		}
	}
}

// TestWipeKeepsIDAllocator proves holds created after a wipe can never
// collide with IDs a later replay restores.
func TestWipeKeepsIDAllocator(t *testing.T) {
	b, err := NewLocal("cpu@X", 10)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := b.Reserve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Wipe(2)
	id2, err := b.Reserve(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatalf("post-wipe reservation reused ID %d", id1)
	}
	if err := b.restoreHold(3, id1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if b.Reservations() != 2 {
		t.Fatalf("want 2 holds, got %d", b.Reservations())
	}
}

// TestRestoredLeaseExpires proves restored holds keep their lease
// expiries: a sweep after the expiry reclaims them, link holds
// included.
func TestRestoredLeaseExpires(t *testing.T) {
	pool, m, cpu, net := restoreFixture(t)
	exports := m.Export()
	cpu.Wipe(2)
	if _, err := RestoreMulti(2, hostCrashResolver(pool, cpu), exports, true); err != nil {
		t.Fatal(err)
	}
	if n, want := pool.ExpireLeases(25), 1+len(net.Links()); n != want {
		t.Fatalf("swept %d holds, want %d", n, want)
	}
	for _, b := range pool.LocalBrokers() {
		if b.Reservations() != 0 {
			t.Fatalf("resource %s kept a hold past its restored lease", b.Resource())
		}
	}
}
