package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// echoEndpoint registers addr and serves it with a goroutine replying
// fn(payload) to every delivery; cleanup stops it.
func echoEndpoint(t *testing.T, f *Fabric, addr Addr, fn func(interface{}) interface{}) *Endpoint {
	t.Helper()
	ep := f.Endpoint(addr, 16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case d := <-ep.Inbox():
				d.Reply(fn(d.Payload))
				d.Done()
			}
		}
	}()
	t.Cleanup(func() {
		close(done)
		wg.Wait()
	})
	return ep
}

// clearRoutes drops every per-route override, restoring the defaults.
func clearRoutes(f *Fabric) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes = make(map[pair]RouteConfig)
	f.rearmLocked()
}

// breakerState reports the position of the breaker on (from, to);
// BreakerClosed when the route was never used.
func breakerState(f *Fabric, from, to Addr) BreakerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	if br, ok := f.breakers[[2]Addr{from, to}]; ok {
		return positionOf(br)
	}
	return BreakerClosed
}

// positionOf reports a breaker's position, accounting for an elapsed
// cooldown (an open breaker past its cooldown reports half-open).
func positionOf(b *Breaker) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

func TestPerfectFabricRoundTrip(t *testing.T) {
	f := New(Options{})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return p.(int) * 2 })
	resp, err := f.Call(context.Background(), "a", "b", "test", 21)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp != 42 {
		t.Fatalf("resp = %v, want 42", resp)
	}
}

func TestCallUnknownEndpoint(t *testing.T) {
	f := New(Options{})
	f.Endpoint("a", 1)
	if _, err := f.Call(context.Background(), "a", "nowhere", "test", 1); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v, want ErrNoEndpoint", err)
	}
}

func TestLoopbackBypassesChaos(t *testing.T) {
	// A fully lossy, partitioned fabric must still deliver loopback
	// calls: the proxy talking to itself never crosses the network.
	f := New(Options{Defaults: RouteConfig{Loss: 1}})
	echoEndpoint(t, f, "a", func(p interface{}) interface{} { return "ok" })
	f.Partition("a", "a")
	resp, err := f.Call(context.Background(), "a", "a", "test", nil)
	if err != nil {
		t.Fatalf("loopback Call: %v", err)
	}
	if resp != "ok" {
		t.Fatalf("resp = %v, want ok", resp)
	}
}

func TestPartitionDropsAndHealRestores(t *testing.T) {
	f := New(Options{})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })

	// Cut b->a; the a->b call must be dropped too: a partition is
	// symmetric.
	f.Partition("b", "a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Call(ctx, "a", "b", "test", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned call err = %v, want deadline", err)
	}

	f.Heal("a", "b")
	f.mu.Lock()
	cut := len(f.partitioned)
	f.mu.Unlock()
	if cut != 0 {
		t.Fatal("still partitioned after Heal")
	}
	if _, err := f.Call(context.Background(), "a", "b", "test", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestTotalLossTimesOut(t *testing.T) {
	f := New(Options{Seed: 1, Defaults: RouteConfig{Loss: 1}})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Call(ctx, "a", "b", "test", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lossy call err = %v, want deadline", err)
	}
}

func TestDuplicationDeliversTwiceCallReturnsOnce(t *testing.T) {
	f := New(Options{Seed: 1, Defaults: RouteConfig{Dup: 1}})
	f.Endpoint("a", 1)
	var mu sync.Mutex
	deliveries := 0
	echoEndpoint(t, f, "b", func(p interface{}) interface{} {
		mu.Lock()
		deliveries++
		mu.Unlock()
		return "pong"
	})
	resp, err := f.Call(context.Background(), "a", "b", "test", nil)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp != "pong" {
		t.Fatalf("resp = %v", resp)
	}
	f.Settle()
	// Settle guarantees both copies reached the inbox; the serving
	// goroutine drains them asynchronously.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := deliveries
		mu.Unlock()
		if n == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries = %d, want 2 (request duplicated)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 30 * time.Millisecond
	f := New(Options{Defaults: RouteConfig{Latency: lat}})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })
	start := time.Now()
	if _, err := f.Call(context.Background(), "a", "b", "test", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	// Request and reply each cross the route once.
	if el := time.Since(start); el < 2*lat {
		t.Fatalf("round trip %v, want >= %v", el, 2*lat)
	}
}

func TestSetRouteOverridesDefaults(t *testing.T) {
	f := New(Options{Defaults: RouteConfig{Loss: 1}})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })
	f.SetRoute("a", "b", RouteConfig{}) // perfect override
	if _, err := f.Call(context.Background(), "a", "b", "test", nil); err != nil {
		t.Fatalf("overridden route call: %v", err)
	}
	clearRoutes(f)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Call(ctx, "a", "b", "test", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cleared route err = %v, want deadline (defaults lossy)", err)
	}
}

func TestClosedEndpointFailsCalls(t *testing.T) {
	f := New(Options{})
	f.Endpoint("a", 1)
	ep := f.Endpoint("b", 1) // registered, never served
	ep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.Call(ctx, "a", "b", "test", nil)
	if err == nil {
		t.Fatal("call to closed endpoint succeeded")
	}
}

func TestReRegisterReplacesEndpoint(t *testing.T) {
	f := New(Options{})
	f.Endpoint("a", 1)
	old := f.Endpoint("b", 1)
	old.Close()
	// A restart re-registers the address; calls must reach the new
	// endpoint, not the closed one.
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "new" })
	resp, err := f.Call(context.Background(), "a", "b", "test", nil)
	if err != nil {
		t.Fatalf("Call after re-register: %v", err)
	}
	if resp != "new" {
		t.Fatalf("resp = %v, want new", resp)
	}
}

func TestDeterministicChaos(t *testing.T) {
	// Same seed + same call sequence => identical loss pattern.
	run := func(seed int64) []bool {
		f := New(Options{Seed: seed, Defaults: RouteConfig{Loss: 0.5}})
		f.Endpoint("a", 1)
		echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })
		var outcomes []bool
		for i := 0; i < 32; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			_, err := f.Call(ctx, "a", "b", "test", i)
			cancel()
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identical seeds", i)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Now: clock}, nil)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if positionOf(b) != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", positionOf(b))
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call inside cooldown")
	}
	advance(time.Second)
	if positionOf(b) != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", positionOf(b))
	}
	// Exactly one probe wins the half-open slot.
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe failure re-opens for another cooldown.
	b.Failure()
	if positionOf(b) != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	advance(time.Second)
	if !b.Allow() {
		t.Fatal("re-cooled breaker refused the probe")
	}
	b.Success()
	if positionOf(b) != BreakerClosed {
		t.Fatalf("state = %v after probe success, want closed", positionOf(b))
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a call")
	}
}

func TestFabricBreakerFastFails(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	f := New(Options{
		Defaults: RouteConfig{Loss: 1},
		Breaker:  &BreakerConfig{Threshold: 2, Cooldown: time.Hour, Now: clock},
	})
	f.Endpoint("a", 1)
	echoEndpoint(t, f, "b", func(p interface{}) interface{} { return "pong" })

	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := f.Call(ctx, "a", "b", "test", nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d err = %v, want deadline", i, err)
		}
	}
	// Threshold reached: the next call fails fast, without burning its
	// deadline.
	start := time.Now()
	_, err := f.Call(context.Background(), "a", "b", "test", nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("fast-fail was not fast")
	}
	if breakerState(f, "a", "b") != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", breakerState(f, "a", "b"))
	}
	// The reverse direction has its own breaker, still closed.
	if breakerState(f, "b", "a") != BreakerClosed {
		t.Fatalf("reverse breaker state = %v, want closed", breakerState(f, "b", "a"))
	}
}

func TestGateShedsBeyondLimit(t *testing.T) {
	g := NewGate(2)
	if err := g.TryAcquire(); err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if err := g.TryAcquire(); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if err := g.TryAcquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire 3 err = %v, want ErrOverloaded", err)
	}
	g.Release()
	if err := g.TryAcquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if got := g.inflight; got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
}

func TestGateUnboundedByDefault(t *testing.T) {
	g := NewGate(0)
	for i := 0; i < 100; i++ {
		if err := g.TryAcquire(); err != nil {
			t.Fatalf("unbounded gate refused acquire %d: %v", i, err)
		}
	}
}

func TestSettleWaitsForDelayedDeliveries(t *testing.T) {
	f := New(Options{Defaults: RouteConfig{Latency: 20 * time.Millisecond}})
	f.Endpoint("a", 1)
	var mu sync.Mutex
	delivered := 0
	echoEndpoint(t, f, "b", func(p interface{}) interface{} {
		mu.Lock()
		delivered++
		mu.Unlock()
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_, _ = f.Call(ctx, "a", "b", "test", nil) // times out before delivery
	cancel()
	f.Settle()
	// Settle guarantees the fabric handed the straggler to the inbox;
	// give the serving goroutine a moment to drain it.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := delivered
		mu.Unlock()
		if n == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered = %d after Settle, want 1 (straggler landed)", n)
		}
		time.Sleep(time.Millisecond)
	}
}
