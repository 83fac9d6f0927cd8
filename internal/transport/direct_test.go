package transport

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"qosres/internal/obs"
)

// TestArmedFollowsConfiguration pins what makes a fabric armed: a
// non-zero default route, a route override, a partition or a breaker.
// Undoing each of them disarms it again.
func TestArmedFollowsConfiguration(t *testing.T) {
	if New(Options{}).armed.Load() {
		t.Fatal("a zero-Options fabric is armed")
	}
	for name, opts := range map[string]Options{
		"defaults": {Defaults: RouteConfig{Latency: time.Millisecond}},
		"breaker":  {Breaker: &BreakerConfig{}},
	} {
		if !New(opts).armed.Load() {
			t.Errorf("%s: fabric not armed", name)
		}
	}
	f := New(Options{Seed: 9})
	steps := []struct {
		what  string
		do    func()
		armed bool
	}{
		{"SetRoute", func() { f.SetRoute("a", "b", RouteConfig{}) }, true},
		{"clearRoutes", func() { clearRoutes(f) }, false},
		{"Partition", func() { f.Partition("a", "b") }, true},
		{"Heal", func() { f.Heal("a", "b") }, false},
		{"Partition twice", func() { f.Partition("a", "b"); f.Partition("b", "c") }, true},
		{"Heal both", func() { f.Heal("a", "b"); f.Heal("b", "c") }, false},
	}
	for _, s := range steps {
		s.do()
		if got := f.armed.Load(); got != s.armed {
			t.Fatalf("after %s: armed = %v, want %v", s.what, got, s.armed)
		}
	}
}

// directCallAllocs is what one Go/Wait to a handler allocates
// on a perfect fabric with no registry and an untraced context: the
// Pending, nothing else.
const directCallAllocs = 1

// TestDirectCallCost pins the perfect-fabric fast path at the cost of a
// function call: no goroutine is left behind and nothing is allocated
// beyond the call's own Pending.
func TestDirectCallCost(t *testing.T) {
	f := New(Options{})
	ep := f.Endpoint("b", 1)
	var reply interface{} = "pong"
	ep.SetHandler("probe", func(d Delivery) {
		d.Reply(reply)
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	call := func() {
		resp, err := f.Go(ctx, "a", "b", "probe", nil).Wait()
		if err != nil || resp != reply {
			t.Fatalf("Go/Wait = %v, %v", resp, err)
		}
	}
	call()
	before := settledGoroutines()
	allocs := testing.AllocsPerRun(1000, call)
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d -> %d across direct calls", before, after)
	}
	t.Logf("%.0f allocs per direct Go/Wait", allocs)
	if allocs > directCallAllocs && !raceEnabled {
		t.Errorf("%.0f allocations per direct Go/Wait, ceiling %d", allocs, directCallAllocs)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// over ten 1 ms sleeps. The goroutine that ran the previous test
// signals its end before it exits, so a count taken right as a test
// starts can still include it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
			continue
		}
		stable++
	}
	return n
}

// TestCallHonoursDeadlineOnFullInbox is the full-inbox regression: with
// the destination's inbox full and nobody serving it, a second call
// used to block on the enqueue until the endpoint closed, ignoring its
// deadline. Both calls must time out on time, and the abandoned
// delivery must be retired so it no longer holds up Settle.
func TestCallHonoursDeadlineOnFullInbox(t *testing.T) {
	for _, armed := range []bool{false, true} {
		f := New(Options{})
		if armed {
			// A perfect override arms the fabric without changing what
			// the route does to a message.
			f.SetRoute("a", "b", RouteConfig{})
		}
		f.Endpoint("a", 1)
		ep := f.Endpoint("b", 1) // depth 1, never served
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func(i int) {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				_, err := f.Call(ctx, "a", "b", "test", i)
				errs <- err
			}(i)
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("armed=%v: err = %v, want deadline", armed, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("armed=%v: a call blocked past its deadline on a full inbox", armed)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for ep.queued.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("armed=%v: %d deliveries charged to the inbox, want the 1 it holds", armed, ep.queued.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestLateWaitKeepsCallLatency pins what a call returns and measures
// when its caller collects it late: a reply that arrived while the
// caller was waiting on another call is returned even though the
// shared deadline has expired since, and is timed at its arrival,
// handler-answered and through an inbox alike.
func TestLateWaitKeepsCallLatency(t *testing.T) {
	reg := obs.New()
	f := New(Options{Metrics: reg})
	f.Endpoint("stuck", 1) // never served
	fast := f.Endpoint("fast", 1)
	fast.SetHandler("probe", func(d Delivery) {
		d.Reply("fast")
	})
	served := f.Endpoint("served", 1)
	go func() {
		for {
			select {
			case d := <-served.Inbox():
				d.Reply("served")
				d.Done()
			case <-served.Done():
				return
			}
		}
	}()
	defer served.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	stuck := f.Go(ctx, "a", "stuck", "probe", nil)
	calls := []*Pending{f.Go(ctx, "a", "fast", "probe", nil), f.Go(ctx, "a", "served", "probe", nil)}
	if _, err := stuck.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck call: %v, want deadline", err)
	}
	for _, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	routes := 0
	for _, h := range reg.Snapshot().Histograms {
		if r := h.Labels["route"]; h.Name != obs.MetricTransportCallSeconds || (r != "a->fast" && r != "a->served") {
			continue
		}
		routes++
		if h.Count != 1 || h.Sum > 0.05 {
			t.Errorf("route %s: %d observations summing to %.3fs, want one well under the 100ms the caller spent elsewhere",
				h.Labels["route"], h.Count, h.Sum)
		}
	}
	if routes != 2 {
		t.Errorf("%d of the two answered routes recorded call times", routes)
	}
}
