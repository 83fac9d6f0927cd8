package broker

import "math"

// smallWindow is the live-sample count at or below which an eviction
// re-sums the window exactly. The tradeoff planner tests α >= 1.0, so a
// subtract-maintained sum that differs from the left-to-right one in the
// last bit flips admission decisions; the paper's experiments never hold
// more than a few dozen reports per window, so at this size every α they
// see is bit-identical to a from-scratch recompute, for at most
// smallWindow additions per eviction.
const smallWindow = 64

// reportWindow is the sliding window of past reports behind the
// availability change index α = r_avail / r_avg of equation (5), shared
// by Local and Network brokers. It averages over reports, not over time:
// every Report in the past span counts once.
//
// Samples stay in arrival order behind a head index. A sample leaves the
// window when its time is at or before now-span: the head steps over it
// and its value is subtracted from the running sum, so a feed costs O(1)
// amortised however many samples are live. The dead prefix is reclaimed,
// and the sum recomputed left to right, only when that is paid for — the
// prefix is at least as long as the live part — or cheap, at most
// smallWindow live samples — or needed: the sum has fallen to a quarter
// of its peak since the last recompute, so the rounding left behind by
// the mass subtracted since is no longer small beside it (a window that
// drains to all-zero reports must sum to exactly zero for the α guard).
// It is not safe for concurrent use.
type reportWindow struct {
	span Time
	// buf[head:] are the live samples, non-decreasing in time (push
	// clamps); buf[:head] is the dead prefix.
	buf  []availSample
	head int
	// sum is the running sum of the live samples' avail; peak is the
	// largest |sum| since it was last recomputed.
	sum, peak float64
}

// feed evicts the samples outside (now-span, now], computes α for avail
// against the mean of those that remain — 1.0 when none do or the mean
// is not positive — and then records (now, avail) as a sample.
func (w *reportWindow) feed(now Time, avail float64) float64 {
	cutoff := now - w.span
	head := w.head
	for w.head < len(w.buf) && w.buf[w.head].at <= cutoff {
		w.sum -= w.buf[w.head].avail
		w.head++
	}
	if live := len(w.buf) - w.head; w.head != head &&
		(live <= smallWindow || w.head >= live || math.Abs(w.sum) < w.peak/4) {
		w.compact()
	}
	alpha := 1.0
	if live := len(w.buf) - w.head; live > 0 {
		if avg := w.sum / float64(live); avg > 0 {
			alpha = avail / avg
		}
	}
	w.push(now, avail)
	return alpha
}

// compact moves the live samples to the front of the backing array and
// recomputes their sum left to right, discarding whatever rounding the
// subtractions had accumulated.
func (w *reportWindow) compact() {
	n := copy(w.buf, w.buf[w.head:])
	w.buf, w.head = w.buf[:n], 0
	var sum float64
	for _, s := range w.buf {
		sum += s.avail
	}
	w.sum, w.peak = sum, math.Abs(sum)
}

// push appends one sample. Callers read their clock before taking the
// window's lock, so two of them can arrive out of time order; the sample
// time is clamped to the previous one's to keep the window sorted, which
// is what lets eviction stop at the first live sample. A full backing
// array is replaced by one sized from the live part alone, so it never
// exceeds twice the peak live count plus smallWindow.
func (w *reportWindow) push(at Time, avail float64) {
	if n := len(w.buf); n > 0 && at < w.buf[n-1].at {
		at = w.buf[n-1].at
	}
	if len(w.buf) == cap(w.buf) {
		live := w.buf[w.head:]
		grown := make([]availSample, len(live), 2*len(live)+smallWindow)
		copy(grown, live)
		w.buf, w.head = grown, 0
	}
	w.buf = append(w.buf, availSample{at: at, avail: avail})
	w.sum += avail
	if a := math.Abs(w.sum); a > w.peak {
		w.peak = a
	}
}
