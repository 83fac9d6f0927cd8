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

// windowChunk is the window's unit of storage, in samples. Samples are
// written into fixed-size chunks and a chunk is let go once every sample
// in it has been evicted, so no sample is ever copied and storage stays
// within two chunks of the live count.
const windowChunk = 32

type sampleChunk [windowChunk]availSample

// reportWindow is the sliding window of past reports behind the
// availability change index α = r_avail / r_avg of equation (5), shared
// by Local and Network brokers. It averages over reports, not over time:
// every Report in the past span counts once.
//
// Samples stay in arrival order in a queue of chunks. A sample leaves
// the window when its time is at or before now-span: the head steps over
// it and its value is subtracted from the running sum, so a feed costs
// O(1) amortised however many samples are live. The sum is recomputed
// left to right only when that is paid for — at least as many samples
// were evicted since the last recompute as are live — or cheap, at most
// smallWindow live samples — or needed: the sum has fallen to a quarter
// of its peak since the last recompute, so the rounding left behind by
// the mass subtracted since is no longer small beside it (a window that
// drains to all-zero reports must sum to exactly zero for the α guard).
// It is not safe for concurrent use.
type reportWindow struct {
	span Time
	// chunks[first:] hold the samples, non-decreasing in time (push
	// clamps). The live ones run from offset head of chunks[first] to
	// offset tail, exclusive, of the last chunk; live counts them.
	chunks            []*sampleChunk
	first, head, tail int
	live              int
	// spare is an emptied chunk held for the next push that needs one.
	// It is kept only while head <= tail, which keeps the storage within
	// two chunks of the live count; a steady feed then never allocates.
	spare *sampleChunk
	// evicted counts the samples evicted since the sum was recomputed.
	evicted int
	// sum is the running sum of the live samples' avail; peak is the
	// largest |sum| since it was last recomputed.
	sum, peak float64
}

// size returns the number of live samples.
func (w *reportWindow) size() int { return w.live }

// feed evicts the samples outside (now-span, now], computes α for avail
// against the mean of those that remain — 1.0 when none do or the mean
// is not positive — and then records (now, avail) as a sample.
func (w *reportWindow) feed(now Time, avail float64) float64 {
	cutoff := now - w.span
	evicted := 0
	for w.live > 0 {
		s := &w.chunks[w.first][w.head]
		if s.at > cutoff {
			break
		}
		w.sum -= s.avail
		w.head++
		w.live--
		evicted++
		if w.head == windowChunk && w.first < len(w.chunks)-1 {
			// The front chunk is all dead and is not the one being
			// written: let it go.
			if w.spare == nil {
				w.spare = w.chunks[w.first]
			}
			w.chunks[w.first] = nil
			w.first++
			w.head = 0
		}
	}
	if evicted > 0 {
		if w.live == 0 {
			// Everything left: write the remaining chunk from its start.
			w.head, w.tail = 0, 0
		}
		if w.head > w.tail {
			w.spare = nil
		}
		if w.evicted += evicted; w.live <= smallWindow || w.evicted >= w.live || math.Abs(w.sum) < w.peak/4 {
			w.resum()
		}
	}
	alpha := 1.0
	if w.live > 0 {
		if avg := w.sum / float64(w.live); avg > 0 {
			alpha = avail / avg
		}
	}
	w.push(now, avail)
	return alpha
}

// resum recomputes the live samples' sum left to right, discarding
// whatever rounding the subtractions had accumulated.
func (w *reportWindow) resum() {
	var sum float64
	c, off := w.first, w.head
	for i := 0; i < w.live; i++ {
		if off == windowChunk {
			c, off = c+1, 0
		}
		sum += w.chunks[c][off].avail
		off++
	}
	w.sum, w.peak, w.evicted = sum, math.Abs(sum), 0
}

// push appends one sample. Callers read their clock before taking the
// window's lock, so two of them can arrive out of time order; the sample
// time is clamped to the previous one's to keep the window sorted, which
// is what lets eviction stop at the first live sample.
func (w *reportWindow) push(at Time, avail float64) {
	if w.live > 0 {
		if last := w.chunks[len(w.chunks)-1][w.tail-1].at; at < last {
			at = last
		}
	}
	if len(w.chunks) == 0 || w.tail == windowChunk {
		w.grow()
	}
	w.chunks[len(w.chunks)-1][w.tail] = availSample{at: at, avail: avail}
	w.tail++
	w.live++
	w.sum += avail
	if a := math.Abs(w.sum); a > w.peak {
		w.peak = a
	}
}

// grow appends an empty chunk, the spare if there is one. The chunk
// pointers are moved down over the released front once it is at least
// half of them, so their slice follows the live count too.
func (w *reportWindow) grow() {
	c := w.spare
	w.spare = nil
	if c == nil {
		c = new(sampleChunk)
	}
	if n := len(w.chunks); n == cap(w.chunks) && w.first > 0 && 2*w.first >= n {
		m := copy(w.chunks, w.chunks[w.first:])
		clear(w.chunks[m:])
		w.chunks, w.first = w.chunks[:m], 0
	}
	w.chunks = append(w.chunks, c)
	w.tail = 0
}
