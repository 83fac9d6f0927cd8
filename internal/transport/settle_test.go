package transport

import (
	"context"
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
	go func() {
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
	fast.SetHandler("probe", func(d Delivery) bool {
		d.Reply("fast")
		return true
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
		h := reg.Histogram(obs.MetricTransportCallSeconds, "", obs.StageBuckets(),
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
		t.Fatal("Settle wedged after fast-lane and inbox calls completed")
	}
}
