package broker

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refWindow is the from-scratch reference the report window is checked
// against: it keeps every sample ever fed (times clamped the same way),
// finds the live ones by their time alone and sums them left to right.
// floor only remembers that an evicted sample stays evicted when a
// backdated feed lowers the cutoff again.
type refWindow struct {
	span  Time
	all   []availSample
	floor int
}

// live evicts for a feed at now and returns the samples still in the
// window, before the feed's own sample is appended.
func (r *refWindow) live(now Time) []availSample {
	cutoff := now - r.span
	first := sort.Search(len(r.all), func(i int) bool { return r.all[i].at > cutoff })
	if first > r.floor {
		r.floor = first
	}
	return r.all[r.floor:]
}

func (r *refWindow) alpha(live []availSample, avail float64) float64 {
	var sum float64
	for _, s := range live {
		sum += s.avail
	}
	if len(live) > 0 {
		if avg := sum / float64(len(live)); avg > 0 {
			return avail / avg
		}
	}
	return 1.0
}

func (r *refWindow) push(now Time, avail float64) {
	if n := len(r.all); n > 0 && now < r.all[n-1].at {
		now = r.all[n-1].at
	}
	r.all = append(r.all, availSample{at: now, avail: avail})
}

// checkAlpha compares an α against the reference's: exactly while at most
// smallWindow samples are live, within 1e-12 relative beyond that.
func checkAlpha(t *testing.T, what string, now Time, live int, got, want float64) {
	t.Helper()
	if live <= smallWindow {
		if got != want {
			t.Fatalf("%s at %v with %d live: alpha = %v, want exactly %v", what, now, live, got, want)
		}
	} else if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("%s at %v with %d live: alpha = %v, want %v within 1e-12", what, now, live, got, want)
	}
}

// checkFeed feeds one sample to both windows. The live count must agree
// on every feed; α is compared when check is set (the reference sum is
// O(live)).
func checkFeed(t *testing.T, w *reportWindow, ref *refWindow, now Time, avail float64, check bool) {
	t.Helper()
	live := ref.live(now)
	got := w.feed(now, avail)
	if check {
		checkAlpha(t, "feed", now, len(live), got, ref.alpha(live, avail))
	}
	ref.push(now, avail)
	if got, want := w.size(), len(live)+1; got != want {
		t.Fatalf("feed(%v, %v): %d live samples, want %d", now, avail, got, want)
	}
}

// storage returns the number of sample slots the window holds,
// including the spare chunk.
func (w *reportWindow) storage() int {
	n := (len(w.chunks) - w.first) * windowChunk
	if w.spare != nil {
		n += windowChunk
	}
	return n
}

// windowSamples copies the live samples out of a window, oldest first.
func windowSamples(w *reportWindow) []availSample {
	out := make([]availSample, 0, w.size())
	c, off := w.first, w.head
	for len(out) < w.size() {
		if off == windowChunk {
			c, off = c+1, 0
		}
		out = append(out, w.chunks[c][off])
		off++
	}
	return out
}

func TestReportWindowMatchesReference(t *testing.T) {
	// Each scenario draws the time step and the availability of feed i.
	scenarios := []struct {
		name  string
		span  Time
		feeds int
		step  func(rng *rand.Rand, i int) Time
		avail func(rng *rand.Rand, i int) float64
	}{
		{
			// The paper's regime: a handful of reports per window.
			name: "sparse", span: 3, feeds: 20000,
			step:  func(rng *rand.Rand, i int) Time { return Time(rng.ExpFloat64() * 0.4) },
			avail: func(rng *rand.Rand, i int) float64 { return 1000 + 3000*rng.Float64() },
		},
		{
			// Bursts of reports at one instant, then gaps that sometimes
			// outlast the window and drain it to empty.
			name: "bursts", span: 3, feeds: 60000,
			step: func(rng *rand.Rand, i int) Time {
				switch r := rng.Float64(); {
				case r < 0.9:
					return 0
				case r < 0.99:
					return Time(rng.Float64())
				}
				return 5
			},
			avail: func(rng *rand.Rand, i int) float64 { return 4000 * rng.Float64() },
		},
		{
			// Hovers around the smallWindow boundary, where the sum
			// switches between subtracting and re-summing.
			name: "boundary", span: 64, feeds: 40000,
			step:  func(rng *rand.Rand, i int) Time { return Time(2 * rng.Float64()) },
			avail: func(rng *rand.Rand, i int) float64 { return 4000 * rng.Float64() },
		},
		{
			// Exhausted resource for long stretches: zero mean, α guard.
			name: "zero", span: 3, feeds: 20000,
			step: func(rng *rand.Rand, i int) Time { return Time(rng.Float64() * 0.1) },
			avail: func(rng *rand.Rand, i int) float64 {
				if (i/500)%2 == 0 {
					return 0
				}
				return 100 * rng.Float64()
			},
		},
		{
			// A resource that runs nearly dry: the window's mass falls by
			// six orders of magnitude while hundreds of samples stay live,
			// so what the subtractions left behind must not show.
			name: "collapse", span: 3, feeds: 40000,
			step: func(rng *rand.Rand, i int) Time { return Time(rng.Float64() * 0.02) },
			avail: func(rng *rand.Rand, i int) float64 {
				if (i/2000)%2 == 0 {
					return 4000 * rng.Float64()
				}
				return 0.004 * rng.Float64()
			},
		},
		{
			// Callers that read the clock before taking the lock: time
			// steps backwards by up to 0.02 on a third of the feeds.
			name: "skewed", span: 3, feeds: 30000,
			step: func(rng *rand.Rand, i int) Time {
				if rng.Intn(3) == 0 {
					return Time(-0.02 * rng.Float64())
				}
				return Time(0.03 * rng.Float64())
			},
			avail: func(rng *rand.Rand, i int) float64 { return 4000 * rng.Float64() },
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			w := &reportWindow{span: sc.span}
			ref := &refWindow{span: sc.span}
			now := Time(0)
			for i := 0; i < sc.feeds; i++ {
				if now += sc.step(rng, i); now < 0 {
					now = 0
				}
				checkFeed(t, w, ref, now, sc.avail(rng, i), true)
			}
		})
	}
}

func TestReportWindowMatchesReferenceAtServedScale(t *testing.T) {
	// A served deployment: 3 s of wall clock at tens of thousands of
	// reports a second, so ~100k samples live. The rate then collapses
	// and the window drains through the smallWindow boundary to empty.
	rng := rand.New(rand.NewSource(2))
	w := &reportWindow{span: 3}
	ref := &refWindow{span: 3}
	now := Time(0)
	peak := 0
	for i := 0; i < 400000; i++ {
		now += Time(rng.ExpFloat64() * 3 / 100000)
		checkFeed(t, w, ref, now, 4000*rng.Float64(), i%1000 == 0)
		if live := w.size(); live > peak {
			peak = live
		}
	}
	if peak < 90000 {
		t.Fatalf("peak live count %d, want ~100k", peak)
	}
	for i := 0; i < 200; i++ {
		now += Time(rng.ExpFloat64() * 0.05)
		checkFeed(t, w, ref, now, 4000*rng.Float64(), true)
	}
	if live := w.size(); live > smallWindow {
		t.Fatalf("%d live samples after the rate collapsed, want a drained window", live)
	}
	now += 10
	checkFeed(t, w, ref, now, 1, true)
	if live := w.size(); live != 1 || w.sum != 1 {
		t.Fatalf("after an idle gap: %d live, sum %v; want the one new sample", live, w.sum)
	}
}

func TestAlphaReportMatchesReference(t *testing.T) {
	// Through the brokers: Report on a Local and on a Network over it
	// while reservations move the availability. Both must feed exactly
	// the sample the reference is given.
	rng := rand.New(rand.NewSource(3))
	link, _ := newLocal("link:L1", 1000, 3, keepAllHistory)
	other, _ := newLocal("link:L2", 700, 3, keepAllHistory)
	net, err := newNetwork("net:A->B", []*Local{link, other}, 3)
	if err != nil {
		t.Fatal(err)
	}
	refLink, refNet := &refWindow{span: 3}, &refWindow{span: 3}
	var held []ReservationID
	now := Time(0)
	for i := 0; i < 20000; i++ {
		now += Time(rng.ExpFloat64() * 0.02)
		switch r := rng.Intn(10); {
		case r < 2:
			if id, err := link.Reserve(now, 50*rng.Float64()); err == nil {
				held = append(held, id)
			}
		case r < 4 && len(held) > 0:
			k := rng.Intn(len(held))
			if err := link.Release(now, held[k]); err != nil {
				t.Fatal(err)
			}
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		for _, b := range []struct {
			broker Broker
			ref    *refWindow
		}{{link, refLink}, {net, refNet}} {
			avail := b.broker.Available()
			live := b.ref.live(now)
			checkAlpha(t, b.broker.Resource()+" Report", now, len(live), b.broker.Report(now).Alpha, b.ref.alpha(live, avail))
			b.ref.push(now, avail)
		}
	}
	if got, want := link.window.size(), len(refLink.live(now)); got != want {
		t.Fatalf("local window holds %d samples, reference %d", got, want)
	}
	if got, want := net.window.size(), len(refNet.live(now)); got != want {
		t.Fatalf("network window holds %d samples, reference %d", got, want)
	}
}

func TestBackdatedSamplesKeepLogsSorted(t *testing.T) {
	// Fast-lane probes and commits read the clock before taking alphaMu
	// or the book lock, so a later arrival can carry an earlier time. Both
	// logs clamp it: they stay sorted, nothing panics, and no sample
	// outlives the cutoff by more than the skew.
	const skew = 0.01
	rng := rand.New(rand.NewSource(4))
	b, err := newLocal("r", 1000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(what string, s []availSample) {
		t.Helper()
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].at < s[j].at }) {
			t.Fatalf("%s is not in time order", what)
		}
	}
	clock := Time(0)
	for i := 0; i < 50000; i++ {
		clock += Time(rng.Float64() * 0.004)
		now := clock - Time(rng.Float64()*skew)
		if id, err := b.Reserve(now, 1); err != nil {
			t.Fatal(err)
		} else if err := b.Release(clock-Time(rng.Float64()*skew), id); err != nil {
			t.Fatal(err)
		}
		b.Report(now)
		b.Report(clock - Time(rng.Float64()*skew))

		if oldest := b.window.chunks[b.window.first][b.window.head].at; oldest <= now-b.window.span-skew {
			t.Fatalf("feed at %v: sample at %v outlived the window by more than the skew", now, oldest)
		}
		if i%1000 == 0 {
			sorted("α window", windowSamples(&b.window))
			sorted("change log", b.log.buf[b.log.head:])
		}
		if p := b.published(); p.at != b.log.buf[len(b.log.buf)-1].at || b.AvailableAt(p.at) != p.avail {
			t.Fatalf("published record (at %v, avail %v) disagrees with the change log", p.at, p.avail)
		}
	}
	sorted("α window", windowSamples(&b.window))
	sorted("change log", b.log.buf[b.log.head:])
	if got := b.Available(); got != 1000 {
		t.Fatalf("available after balanced churn = %v, want 1000", got)
	}
	if got := b.AvailableAt(clock + 1); got != 1000 {
		t.Fatalf("AvailableAt after the last change = %v, want 1000", got)
	}

	// The two interleaved commits of the bug report: the second carries
	// the earlier stamp and must land on, not before, the first.
	c, _ := NewLocal("r", 100)
	_, _ = c.Reserve(10, 30)
	_, _ = c.Reserve(9.999, 20)
	if got := c.AvailableAt(10); got != 50 {
		t.Fatalf("AvailableAt(10) after a backdated commit = %v, want 50", got)
	}
	if got := c.AvailableAt(9.9995); got != 100 {
		t.Fatalf("AvailableAt before both commits = %v, want 100", got)
	}
}

func TestChangeLogTrimNeverChangesAnswers(t *testing.T) {
	// A log trimmed to a horizon must answer every query inside the
	// horizon exactly as one that keeps everything — what keeps the
	// figure-12 staleness sweep's observations unchanged.
	for _, keep := range []Time{0, 2, 8, 14} {
		rng := rand.New(rand.NewSource(5))
		trimmed, full := newChangeLog(keep, 1000), newChangeLog(keepAllHistory, 1000)
		now := Time(0)
		for i := 0; i < 50000; i++ {
			if rng.Intn(4) > 0 {
				now += Time(rng.ExpFloat64() * 0.5)
			}
			avail := 1000 * rng.Float64()
			if got, want := trimmed.record(now, avail), full.record(now, avail); got != want {
				t.Fatalf("keep %v: recorded at %v, reference at %v", keep, got, want)
			}
			asOf := now - Time(rng.Float64())*keep
			got, ok := trimmed.availableAt(asOf)
			want, wantOK := full.availableAt(asOf)
			if ok != wantOK || got != want {
				t.Fatalf("keep %v: availableAt(%v) at %v = %v (ok %v), reference %v (ok %v)", keep, asOf, now, got, ok, want, wantOK)
			}
		}
		if live := len(trimmed.buf) - trimmed.head; keep == 0 && live != 1 {
			t.Fatalf("keep 0 retains %d entries, want the current one alone", live)
		}
	}
}

func TestChangeLogBoundedAtRuntimeHorizon(t *testing.T) {
	// The runtime's horizon is zero. A million reserve/release cycles on
	// an advancing clock must leave the log at a small constant size,
	// where it used to grow 32 B a cycle until something trimmed it.
	b, err := newLocal("r", 1000, DefaultAlphaWindow, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := Time(0)
	for i := 0; i < 1000000; i++ {
		now += 1e-4
		id, err := b.Reserve(now, 10)
		if err != nil {
			t.Fatal(err)
		}
		now += 1e-4
		if err := b.Release(now, id); err != nil {
			t.Fatal(err)
		}
		if len(b.log.buf) > 2 || cap(b.log.buf) > 4 {
			t.Fatalf("cycle %d: change log len %d cap %d, want a small constant", i, len(b.log.buf), cap(b.log.buf))
		}
	}
	if got := b.AvailableAt(now); got != 1000 {
		t.Fatalf("AvailableAt(now) = %v, want 1000", got)
	}
}

func TestReportWindowBackingArrayBounded(t *testing.T) {
	// Storage follows the live count, not the number of samples ever
	// fed: through ramps, plateaus and drains it never exceeds twice the
	// peak live count plus smallWindow, nor the live count plus two
	// chunks.
	rng := rand.New(rand.NewSource(6))
	w := &reportWindow{span: 3}
	now := Time(0)
	peak := 0
	for i := 0; i < 600000; i++ {
		rate := []float64{50, 20000, 3000, 20000, 1, 8000}[i/100000]
		now += Time(rng.ExpFloat64() / rate)
		w.feed(now, 1000)
		if live := w.size(); live > peak {
			peak = live
		}
		if w.storage() > 2*peak+smallWindow {
			t.Fatalf("feed %d: storage %d with peak live count %d", i, w.storage(), peak)
		}
		if w.storage() > w.size()+2*windowChunk {
			t.Fatalf("feed %d: storage %d with %d live samples, want at most two chunks more", i, w.storage(), w.size())
		}
	}
	if peak < 50000 {
		t.Fatalf("peak live count %d, the 20000/TU plateau should hold ~60k", peak)
	}
}

func TestReportWindowSteadyFeedDoesNotAllocate(t *testing.T) {
	w := &reportWindow{span: 1000}
	now := Time(0)
	feed := func() {
		now++
		w.feed(now, 1000)
	}
	for i := 0; i < 5000; i++ {
		feed()
	}
	if allocs := testing.AllocsPerRun(10000, feed); allocs != 0 {
		t.Fatalf("steady-state feed allocates %v times per call, want 0", allocs)
	}
}

var alphaSink float64

// BenchmarkAlphaFeed measures one steady-state feed — evict one sample,
// compute α, append one — at two window sizes. The cost must be flat in
// the window size: run with a fixed -benchtime=Nx and compare ns/op.
func BenchmarkAlphaFeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		live int
	}{{"live=1k", 1000}, {"live=100k", 100000}} {
		b.Run(bc.name, func(b *testing.B) {
			w := &reportWindow{span: Time(bc.live)}
			now := Time(0)
			for i := 0; i < 3*bc.live; i++ {
				now++
				w.feed(now, 1000+float64(i%7))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				alphaSink = w.feed(now, 1000+float64(i%7))
			}
		})
	}
}
