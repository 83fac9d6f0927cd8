package broker

import (
	"math"
	"sort"
)

// keepAllHistory is the change-log retention of brokers built without an
// explicit one (NewLocal, NewPool): every availability change stays
// answerable by AvailableAt for the broker's lifetime.
const keepAllHistory Time = math.MaxFloat64

// changeLog is a Local broker's availability history: one entry per
// instant at which the availability changed, non-decreasing in time, so
// AvailableAt can replay an observation "as of" an earlier time (section
// 5.2.4). It bounds itself: every append drops the entries a query no
// older than the retention horizon can no longer reach, keeping the
// latest entry at or before now-keep as the baseline. A horizon of zero
// — a deployment that only ever asks about now — leaves the one current
// entry. Callers hold the broker's book lock.
type changeLog struct {
	keep Time
	// buf[head:] are the retained entries; buf[:head] is a dead prefix
	// reclaimed once it is at least as long as the retained part. The
	// retained part is never empty.
	buf  []availSample
	head int
}

func newChangeLog(keep Time, capacity float64) changeLog {
	return changeLog{keep: keep, buf: []availSample{{at: 0, avail: capacity}}}
}

// record notes that the availability became avail at now and returns the
// instant it was recorded under. Mutations of one instant coalesce into
// one entry. So does a mutation stamped before the latest entry — its
// caller read the clock before taking the book lock and lost the race for
// it — which keeps the log sorted: the returned instant is then the
// latest entry's, not now.
func (l *changeLog) record(now Time, avail float64) Time {
	if last := &l.buf[len(l.buf)-1]; now <= last.at {
		last.avail = avail
		return last.at
	}
	l.buf = append(l.buf, availSample{at: now, avail: avail})
	keepAfter := now - l.keep
	for l.head+1 < len(l.buf) && l.buf[l.head+1].at <= keepAfter {
		l.head++
	}
	if l.head >= len(l.buf)-l.head {
		n := copy(l.buf, l.buf[l.head:])
		l.buf, l.head = l.buf[:n], 0
	}
	return now
}

// availableAt returns the availability in force at asOf; ok is false when
// asOf precedes every retained entry.
func (l *changeLog) availableAt(asOf Time) (avail float64, ok bool) {
	live := l.buf[l.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i].at > asOf })
	if i == 0 {
		return 0, false
	}
	return live[i-1].avail, true
}
