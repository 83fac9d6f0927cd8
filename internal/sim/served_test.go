package sim

import (
	"context"
	"errors"
	"testing"

	"qosres/internal/proxy"
)

// TestServedRecoverRefusesAnotherSeed: the served deployment draws its
// capacities from the seed, so a log written under seed 7 replayed
// into seed 8's books would restore holds admitted against other
// capacities and over-commit them. Recovery under seed 8 must fail with
// proxy.ErrForeignLog, and recovery under seed 7 must still restore
// every book exactly, within its capacity.
func TestServedRecoverRefusesAnotherSeed(t *testing.T) {
	dir := t.TempDir()
	clock := &proxy.ManualClock{}
	open := func(seed int64, recover bool) (*ServedEnv, error) {
		return NewServedEnv(ServedOptions{Seed: seed, LeaseTTL: 600, WALDir: dir, Recover: recover, Clock: clock})
	}
	books := func(se *ServedEnv) map[string]float64 {
		out := make(map[string]float64)
		for _, b := range se.env.pool.LocalBrokers() {
			out[b.Resource()] = b.Reserved()
			if b.Reserved() > b.Capacity()+1e-6 {
				t.Errorf("%s holds %g of a %g capacity", b.Resource(), b.Reserved(), b.Capacity())
			}
		}
		return out
	}

	se, err := open(7, false)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 400; i++ {
		offer, err := se.SampleSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.EstablishModel(context.Background(), offer.MainHost, offer.Service, offer.Binding); err == nil {
			admitted++
		}
	}
	if admitted < 100 {
		t.Fatalf("only %d of 400 sessions admitted under seed 7", admitted)
	}
	want := books(se)
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}

	if other, err := open(8, true); !errors.Is(err, proxy.ErrForeignLog) {
		if err == nil {
			books(other)
			other.Close()
		}
		t.Fatalf("recover under seed 8: err = %v, want proxy.ErrForeignLog", err)
	}

	same, err := open(7, true)
	if err != nil {
		t.Fatalf("recover under seed 7: %v", err)
	}
	defer same.Close()
	got := books(same)
	for r, amt := range want {
		if d := got[r] - amt; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s holds %g after recovery, %g before", r, got[r], amt)
		}
	}
}
