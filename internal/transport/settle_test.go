package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qosres/internal/obs"
)

// TestSettleWaitsForInboxConsumer pins the drain barrier against the
// reply-before-done window: a consumer that replies first and keeps
// mutating state afterwards is still "in flight" until it calls Done,
// and Settle must not return before that.
func TestSettleWaitsForInboxConsumer(t *testing.T) {
	f := New(Options{})
	ep := f.Endpoint("A", 4)
	var handled atomic.Bool
	consumed := make(chan struct{})
	defer func() {
		ep.Close()
		<-consumed
	}()
	go func() {
		defer close(consumed)
		for {
			select {
			case d := <-ep.Inbox():
				d.Reply("ok")
				// The reply races ahead of the rest of the handler's work —
				// exactly the window where a settler could observe a
				// half-mutated book.
				time.Sleep(30 * time.Millisecond)
				handled.Store(true)
				d.Done()
			case <-ep.Done():
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := f.Call(ctx, "B", "A", "work", 1); err != nil {
		t.Fatal(err)
	}
	f.Settle()
	if !handled.Load() {
		t.Fatal("Settle returned while an inbox delivery was still being handled")
	}
}

// TestSettleExcludesClosedEndpoints proves a crash cannot wedge the
// barrier: deliveries stranded in a closed endpoint's inbox died with
// its host, so Settle stops waiting on them.
func TestSettleExcludesClosedEndpoints(t *testing.T) {
	f := New(Options{})
	ep := f.Endpoint("C", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// No consumer drains C: the delivery queues, the call times out.
	if _, err := f.Call(ctx, "B", "C", "work", 1); err == nil {
		t.Fatal("call against a consumerless endpoint should time out")
	}
	settled := make(chan struct{})
	go func() {
		f.Settle()
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("Settle ignored a queued delivery on an open endpoint")
	case <-time.After(30 * time.Millisecond):
	}
	ep.Close() // the host crashes; its queue dies with it
	select {
	case <-settled:
	case <-time.After(2 * time.Second):
		t.Fatal("Settle wedged on a closed endpoint's stranded queue")
	}
}

// TestFastLaneParity proves handler-answered calls hit the same
// observability surface as inbox-served ones: one
// qosres_transport_call_seconds observation per call either way, and
// both are settled when Settle returns.
func TestFastLaneParity(t *testing.T) {
	reg := obs.New()
	f := New(Options{Metrics: reg})
	fast := f.Endpoint("F", 4)
	fast.SetHandler("probe", func(d Delivery) {
		d.Reply("fast")
	})
	slow := f.Endpoint("S", 4)
	go func() {
		for {
			select {
			case d := <-slow.Inbox():
				d.Reply("slow")
				d.Done()
			case <-slow.Done():
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, to := range []Addr{"F", "S"} {
		if _, err := f.Call(ctx, "B", to, "probe", nil); err != nil {
			t.Fatalf("call to %s: %v", to, err)
		}
	}
	for _, route := range []string{"B->F", "B->S"} {
		h := reg.Histogram(obs.MetricTransportCallSeconds, "", nil,
			"route", route, "kind", "probe")
		if got := h.Count(); got != 1 {
			t.Errorf("route %s recorded %d call observations, want 1", route, got)
		}
	}
	settled := make(chan struct{})
	go func() {
		f.Settle()
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(2 * time.Second):
		t.Fatal("Settle wedged after handler and inbox calls completed")
	}
}

// TestInboxlessEndpointDropsUnhandledKinds pins the depth-0 rule: an
// endpoint made without an inbox drops a delivery of a kind it has no
// handler for instead of stranding it in a queue nobody drains. A
// direct call fails at once, a routed one times out on its own
// deadline, each drop is counted as no_handler, and Settle returns.
func TestInboxlessEndpointDropsUnhandledKinds(t *testing.T) {
	for _, armed := range []bool{false, true} {
		reg := obs.New()
		f := New(Options{Metrics: reg})
		if armed {
			f.SetRoute("a", "b", RouteConfig{})
		}
		ep := f.Endpoint("b", 0)
		ep.SetHandler("known", func(d Delivery) { d.Reply("ok") })
		if ep.Inbox() != nil {
			t.Fatal("a depth-0 endpoint has an inbox")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := f.Call(ctx, "a", "b", "unknown", nil)
		elapsed := time.Since(start)
		cancel()
		switch {
		case !armed && !errors.Is(err, errNoHandler):
			t.Errorf("direct call err = %v, want %v", err, errNoHandler)
		case !armed && elapsed > 25*time.Millisecond:
			t.Errorf("direct call took %v, want an immediate failure", elapsed)
		case armed && !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("routed call err = %v, want deadline", err)
		}
		if elapsed > time.Second {
			t.Fatalf("armed=%v: call blocked %v", armed, elapsed)
		}
		if got := reg.Counter(obs.MetricTransportDropped, "", "reason", "no_handler").Value(); got != 1 {
			t.Errorf("armed=%v: no_handler drops = %v, want 1", armed, got)
		}
		if _, err := f.Call(context.Background(), "a", "b", "known", nil); err != nil {
			t.Fatalf("armed=%v: handled kind: %v", armed, err)
		}
		settled := make(chan struct{})
		go func() {
			f.Settle()
			close(settled)
		}()
		select {
		case <-settled:
		case <-time.After(time.Second):
			t.Fatalf("armed=%v: Settle wedged on an unhandled delivery", armed)
		}
	}
}
