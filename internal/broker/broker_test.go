package broker

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestLocalReserveRelease(t *testing.T) {
	b, err := NewLocal("cpu@h", 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Resource() != "cpu@h" || b.Capacity() != 100 || b.Available() != 100 {
		t.Fatal("fresh broker state wrong")
	}
	id, err := b.Reserve(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if b.Available() != 70 {
		t.Fatalf("avail = %v", b.Available())
	}
	if _, err := b.Reserve(2, 71); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve err = %v", err)
	}
	if err := b.Release(3, id); err != nil {
		t.Fatal(err)
	}
	if b.Available() != 100 {
		t.Fatalf("after release avail = %v", b.Available())
	}
	if err := b.Release(4, id); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("double release err = %v", err)
	}
	if b.Reservations() != 0 {
		t.Fatalf("leaked reservations: %d", b.Reservations())
	}
}

func TestLocalReserveExactCapacity(t *testing.T) {
	b, _ := NewLocal("r", 10)
	if _, err := b.Reserve(0, 10); err != nil {
		t.Fatalf("exact-capacity reserve failed: %v", err)
	}
	if b.Available() != 0 {
		t.Fatalf("avail = %v", b.Available())
	}
	if _, err := b.Reserve(1, 0.0001); !errors.Is(err, ErrInsufficient) {
		t.Fatal("reserve on empty broker must fail")
	}
	// Zero-amount reservations are legal and harmless.
	if _, err := b.Reserve(2, 0); err != nil {
		t.Fatalf("zero reserve: %v", err)
	}
}

func TestLocalRejectsNegative(t *testing.T) {
	b, _ := NewLocal("r", 10)
	if _, err := b.Reserve(0, -1); err == nil {
		t.Fatal("negative reserve accepted")
	}
}

func TestNewLocalValidation(t *testing.T) {
	if _, err := NewLocal("", 1); err == nil {
		t.Fatal("empty resource accepted")
	}
	if _, err := NewLocal("r", -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewLocalWindow("r", 1, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestAvailableAtReplaysHistory(t *testing.T) {
	b, _ := NewLocal("r", 100)
	id1, _ := b.Reserve(10, 40) // avail 60 from t=10
	id2, _ := b.Reserve(20, 10) // avail 50 from t=20
	_ = b.Release(30, id1)      // avail 90 from t=30
	_ = b.Release(40, id2)      // avail 100 from t=40

	cases := map[Time]float64{
		0: 100, 5: 100, 10: 60, 15: 60, 20: 50, 25: 50, 30: 90, 35: 90, 40: 100, 99: 100,
	}
	for at, want := range cases {
		if got := b.AvailableAt(at); got != want {
			t.Errorf("AvailableAt(%v) = %v, want %v", at, got, want)
		}
	}
}

func TestAvailableAtSameInstantCoalesces(t *testing.T) {
	b, _ := NewLocal("r", 100)
	_, _ = b.Reserve(5, 10)
	_, _ = b.Reserve(5, 10)
	if got := b.AvailableAt(5); got != 80 {
		t.Fatalf("AvailableAt(5) = %v, want 80 (coalesced)", got)
	}
}

func TestChangeLogTrimKeepsBaseline(t *testing.T) {
	// A 5-TU horizon: the change at 30 makes 25 the oldest instant the
	// log must answer, so the entry in force then (the release at 20)
	// becomes the baseline and everything before it goes.
	b, err := newLocalOn(newStripe(), "r", 100, DefaultAlphaWindow, 5)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b.Reserve(10, 40)
	_ = b.Release(20, id)
	_, _ = b.Reserve(30, 25)
	if got := b.AvailableAt(25); got != 100 {
		t.Fatalf("baseline after trim = %v, want 100", got)
	}
	if got := b.AvailableAt(35); got != 75 {
		t.Fatalf("AvailableAt(35) = %v, want 75", got)
	}
	if got := len(b.log.buf) - b.log.head; got != 2 {
		t.Fatalf("log retains %d entries, want 2 (baseline at 20, change at 30)", got)
	}
	if _, err := newLocalOn(newStripe(), "r", 100, DefaultAlphaWindow, -1); err == nil {
		t.Fatal("negative history horizon accepted")
	}
}

func TestAlphaTrendDown(t *testing.T) {
	b, _ := NewLocalWindow("r", 100, 3)
	// First report: empty window, alpha = 1.
	rep := b.Report(0)
	if rep.Alpha != 1 {
		t.Fatalf("first alpha = %v", rep.Alpha)
	}
	// Consume resources, report again within the window: alpha < 1.
	if _, err := b.Reserve(1, 50); err != nil {
		t.Fatal(err)
	}
	rep = b.Report(2)
	if rep.Avail != 50 {
		t.Fatalf("avail = %v", rep.Avail)
	}
	if rep.Alpha >= 1 {
		t.Fatalf("downtrend alpha = %v, want < 1", rep.Alpha)
	}
	if math.Abs(rep.Alpha-0.5) > 1e-9 {
		t.Fatalf("alpha = %v, want 0.5 (50 avail / avg 100)", rep.Alpha)
	}
}

func TestAlphaTrendUp(t *testing.T) {
	b, _ := NewLocalWindow("r", 100, 3)
	id, _ := b.Reserve(0, 80)
	b.Report(0) // reports 20
	_ = b.Release(1, id)
	rep := b.Report(1) // avail 100 vs avg 20
	if rep.Alpha <= 1 {
		t.Fatalf("uptrend alpha = %v, want > 1", rep.Alpha)
	}
}

func TestAlphaWindowExpiry(t *testing.T) {
	b, _ := NewLocalWindow("r", 100, 3)
	_, _ = b.Reserve(0, 50)
	b.Report(0) // 50 within window
	// After the window passes, the old report must not drag alpha.
	rep := b.Report(10)
	if rep.Alpha != 1 {
		t.Fatalf("alpha after window expiry = %v, want 1", rep.Alpha)
	}
}

func TestAlphaZeroAvailability(t *testing.T) {
	b, _ := NewLocalWindow("r", 100, 3)
	_, _ = b.Reserve(0, 100)
	b.Report(0) // reports 0
	rep := b.Report(1)
	if rep.Alpha != 1 {
		t.Fatalf("alpha with zero average = %v, want 1 (guard)", rep.Alpha)
	}
}

func TestLocalConcurrentSafety(t *testing.T) {
	b, _ := NewLocal("r", 1000)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if id, err := b.Reserve(Time(j), 5); err == nil {
					_ = b.Release(Time(j), id)
				}
				b.Report(Time(j))
				b.AvailableAt(Time(j / 2))
			}
		}()
	}
	wg.Wait()
	if b.Available() != 1000 {
		t.Fatalf("avail after churn = %v", b.Available())
	}
	if b.Reservations() != 0 {
		t.Fatalf("leaked %d reservations", b.Reservations())
	}
}

func TestPropertyReserveReleaseConserves(t *testing.T) {
	f := func(amounts []uint8) bool {
		b, _ := NewLocal("r", 10000)
		var ids []ReservationID
		now := Time(0)
		for _, a := range amounts {
			now++
			if id, err := b.Reserve(now, float64(a)); err == nil {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			now++
			if err := b.Release(now, id); err != nil {
				return false
			}
		}
		return b.Available() == 10000 && b.Reservations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAvailabilityNeverNegativeOrExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		b, _ := NewLocal("r", 500)
		var ids []ReservationID
		now := Time(0)
		for _, op := range ops {
			now++
			amount := float64(op % 600) // sometimes > capacity
			if op%3 == 0 && len(ids) > 0 {
				_ = b.Release(now, ids[0])
				ids = ids[1:]
				continue
			}
			if id, err := b.Reserve(now, amount); err == nil {
				ids = append(ids, id)
			}
			a := b.Available()
			if a < -1e-9 || a > 500+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaFirstReportIsOne(t *testing.T) {
	b, _ := NewLocal("r", 100)
	// The very first report has an empty averaging window; α must be the
	// neutral 1.0, not a division by zero.
	rep := b.Report(5)
	if rep.Alpha != 1 {
		t.Fatalf("alpha of first report = %v, want 1", rep.Alpha)
	}
}

func TestAlphaAllZeroWindowWithRecoveredAvailability(t *testing.T) {
	// Regression guard for the α = r_avail / r_avg division: a window
	// whose reports are all zero combined with a *nonzero* current
	// availability would yield +Inf without the zero-average guard.
	b, _ := NewLocalWindow("r", 100, 3)
	id, err := b.Reserve(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	b.Report(0) // avail 0 enters the window
	if err := b.Release(1, id); err != nil {
		t.Fatal(err)
	}
	rep := b.Report(1) // avail 100, window average 0
	if math.IsInf(rep.Alpha, 0) || math.IsNaN(rep.Alpha) {
		t.Fatalf("alpha = %v, want finite", rep.Alpha)
	}
	if rep.Alpha != 1 {
		t.Fatalf("alpha with all-zero window = %v, want 1 (guard)", rep.Alpha)
	}
}
