package proxy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/topo"
)

// reportClock wraps a broker and records the wall time of its first
// Report.
type reportClock struct {
	broker.Broker
	once sync.Once
	at   time.Time
}

func (b *reportClock) Report(now broker.Time) broker.Report {
	b.once.Do(func() { b.at = time.Now() })
	return b.Broker.Report(now)
}

// TestStalledParticipantDelaysOnlyItsOwnLeg pins the fan-out: every leg
// goes out before the first reply is awaited, so the healthy hosts
// answer at once while the leg to a stalled proxy runs out its
// deadline.
func TestStalledParticipantDelaysOnlyItsOwnLeg(t *testing.T) {
	rt := NewRuntime(&ManualClock{}, Options{})
	healthy := []topo.HostID{"A", "B", "C", "D"}
	timed := map[topo.HostID]*reportClock{}
	var resources []string
	for _, h := range append([]topo.HostID{"Y"}, healthy...) {
		if _, err := rt.AddHost(h); err != nil {
			t.Fatal(err)
		}
		local, err := broker.NewLocal("cpu@"+string(h), 100)
		if err != nil {
			t.Fatal(err)
		}
		var b broker.Broker = local
		if h != "Y" {
			timed[h] = &reportClock{Broker: local}
			b = timed[h]
		}
		if err := rt.Deploy(h, b); err != nil {
			t.Fatal(err)
		}
		resources = append(resources, b.Resource())
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	defer close(stallProxy(t, rt, "Y").release)

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	snap, err := rt.collectAvailability(ctx, "A", newRoute(rt.live.Load().owner, resources))
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 350*time.Millisecond {
		t.Fatalf("fan-out returned after %v, before the stalled leg's deadline", el)
	}
	if snap.Avail["cpu@Y"] != 0 {
		t.Fatalf("stalled host reported %v, want the never-heard-from 0", snap.Avail["cpu@Y"])
	}
	for h, b := range timed {
		if b.at.IsZero() {
			t.Fatalf("host %s never answered", h)
		}
		if d := b.at.Sub(start); d > 150*time.Millisecond {
			t.Errorf("host %s answered %v into the fan-out, behind the stalled leg", h, d)
		}
		if snap.Avail[b.Resource()] != 100 {
			t.Errorf("host %s: avail %v, want 100", h, snap.Avail[b.Resource()])
		}
	}
}

// TestFastLanePrepareVsCrashRestart races handler-answered prepares and
// aborts on a host against repeated crash-restarts of it, each of which
// re-registers the host's endpoint before installing its handlers. Every hold the book
// carries must belong to a live prepare of the host's idempotency
// table, before and after a final restart: no handler may mutate the
// book between the wipe and the replay or outlive its endpoint.
func TestFastLanePrepareVsCrashRestart(t *testing.T) {
	rt, clock, brokers := durableWorld(t, t.TempDir(), Options{LeaseTTL: 50})
	rt.Start()
	expiry := clock.Now() + 50
	fabric := rt.Transport()

	const workers, crashes = 4, 20
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("X#w%d-%d", w, i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, _ = fabric.Call(ctx, "X", "Y", msgPrepare,
					prepareRequest{id: id, req: qos.ResourceVector{"cpu@Y": 1.0 / 64}, expiry: expiry})
				if i%2 == 0 {
					_, _ = fabric.Call(ctx, "X", "Y", msgAbort, abortRequest{id: id})
				}
				cancel()
				sent[w]++
			}
		}(w)
	}
	for i := 0; i < crashes; i++ {
		time.Sleep(time.Millisecond)
		if err := rt.CrashRestart("Y"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	fabric.Settle()
	t.Logf("%d crash-restarts under %v prepares per worker", crashes, sent)

	_, y, ok := rt.owning("cpu@Y")
	if !ok {
		t.Fatal("cpu@Y deployed nowhere")
	}
	book := brokers["cpu@Y"]
	y.mu.Lock()
	var recorded float64
	holds := 0
	for _, st := range y.pending {
		if st.aborted || st.res == nil {
			continue
		}
		for _, ex := range st.res.Export() {
			recorded += ex.Amount
			holds++
		}
	}
	y.mu.Unlock()
	if book.Reserved() != recorded || book.Reservations() != holds {
		t.Fatalf("book holds %d (%g reserved), idempotency table records %d (%g)",
			book.Reservations(), book.Reserved(), holds, recorded)
	}
	// No prepare was ever decided, so a last restart presumes every
	// surviving one aborted and the log must account for each hold.
	if err := rt.CrashRestart("Y"); err != nil {
		t.Fatal(err)
	}
	if book.Reserved() != 0 || book.Reservations() != 0 {
		t.Fatalf("after the final restart: %d holds, %g reserved; want none", book.Reservations(), book.Reserved())
	}
}
