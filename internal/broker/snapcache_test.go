package broker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// readTestPool builds the standard figure-9 test pool plus one network
// resource, returning the pool and the resource set an admission would
// snapshot.
func readTestPool(t *testing.T) (*Pool, []string) {
	t.Helper()
	p := testPool(t)
	n, err := p.Network("H4", "H1")
	if err != nil {
		t.Fatal(err)
	}
	return p, []string{"cpu@H1", "cpu@H4", n.Resource()}
}

// TestPooledSnapshotZeroAllocsSteadyState pins the snapshot buffer
// pool's allocation contract: once the pooled maps and the α-window
// sample slices have reached their steady capacity, a Pool.Snapshot
// handed back with RecycleSnapshot allocates nothing.
func TestPooledSnapshotZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	p, res := readTestPool(t)

	now := Time(0)
	query := func() {
		now++ // advance so the α windows prune and stay bounded
		snap, err := p.Snapshot(now, res)
		if err != nil {
			t.Fatal(err)
		}
		p.RecycleSnapshot(snap)
	}
	for i := 0; i < 64; i++ {
		query() // warm: fill the buffer pool, stabilize sample capacities
	}
	if allocs := testing.AllocsPerRun(200, query); allocs != 0 {
		t.Fatalf("pooled snapshot path allocates %g per query, want 0", allocs)
	}
}

// TestPublishedReadsTornFreeUnderContention is the seqlock
// linearizability stress: 16 wait-free readers race 16 reserving and
// releasing writers on a Local and a Network broker. No reader may ever
// observe an availability outside [0, capacity] or an epoch older than
// one it already observed. Run under -race in CI, this also pins the
// atomic publication against torn reads.
func TestPublishedReadsTornFreeUnderContention(t *testing.T) {
	p, _ := readTestPool(t)
	lb, _ := p.Get("cpu@H1")
	local := lb.(*Local)
	net, err := p.Network("H4", "H1")
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 16
		writers = 16
		rounds  = 400
	)
	var (
		tick Time // strictly increasing logical clock, under mu
		mu   sync.Mutex
		done atomic.Bool
		wwg  sync.WaitGroup // writers
		rwg  sync.WaitGroup // readers
		errs = make(chan string, readers+writers)
	)
	next := func() Time {
		mu.Lock()
		tick++
		now := tick
		mu.Unlock()
		return now
	}

	check := func(what string, avail, capacity float64) bool {
		if avail < 0 || avail > capacity {
			errs <- what
			return false
		}
		return true
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				if w%2 == 0 {
					var m *MultiReservation
					if m, err = reserveRoute(net, next(), 1); err == nil {
						err = m.Release(next())
					}
				} else {
					var id ReservationID
					if id, err = local.Reserve(next(), 1); err == nil {
						err = local.Release(next(), id)
					}
				}
				if err != nil && !errors.Is(err, ErrInsufficient) {
					errs <- "reserve/release: " + err.Error()
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastLocal, lastNet uint64
			for !done.Load() {
				pr := local.published()
				if !check("local torn read", pr.avail, pr.capacity) {
					return
				}
				if pr.epoch < lastLocal {
					errs <- "local epoch went backwards"
					return
				}
				lastLocal = pr.epoch
				if !check("local Available", local.Available(), local.Capacity()) {
					return
				}
				if !check("network Available", net.Available(), 100) {
					return
				}
				var e uint64
				for _, l := range net.books {
					e += l.published().epoch
				}
				if e < lastNet {
					errs <- "network epoch went backwards"
					return
				} else {
					lastNet = e
				}
				now := next()
				if rep := local.Report(now); !check("local Report", rep.Avail, local.Capacity()) {
					return
				}
				if !check("local AvailableAt", local.AvailableAt(now), local.Capacity()) {
					return
				}
			}
		}()
	}

	// Writers are bounded by rounds; once they drain, stop the readers.
	wwg.Wait()
	done.Store(true)
	rwg.Wait()

	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
