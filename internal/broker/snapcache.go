package broker

import (
	"sync"

	"qosres/internal/qos"
)

// This file holds the pooled snapshot buffers on top of the wait-free
// broker reads (publish.go), so Pool.Snapshot stops allocating two maps
// per query.

// snapBufPool recycles Snapshot buffers. A pooled snapshot keeps its
// two maps allocated; RecycleSnapshot clears them in place so the
// buckets are reused and steady-state snapshot queries allocate
// nothing.
var snapBufPool = sync.Pool{
	New: func() any {
		return &Snapshot{
			Avail: make(qos.ResourceVector, 8),
			Alpha: make(map[string]float64, 8),
		}
	},
}

// grabSnapshot draws an empty snapshot buffer stamped with now.
func grabSnapshot(now Time) *Snapshot {
	s := snapBufPool.Get().(*Snapshot)
	s.At = now
	return s
}

// RecycleSnapshot returns a snapshot produced by Pool.Snapshot or
// Pool.StaleSnapshot to the buffer pool once the caller is done
// planning against it. Recycling is strictly optional — an unrecycled
// snapshot is simply garbage-collected — and must only be done by a
// caller that owns the snapshot exclusively. Synthetic snapshots with
// nil maps are ignored.
func (p *Pool) RecycleSnapshot(s *Snapshot) {
	if s == nil || s.Avail == nil || s.Alpha == nil {
		return
	}
	for k := range s.Avail {
		delete(s.Avail, k)
	}
	for k := range s.Alpha {
		delete(s.Alpha, k)
	}
	s.At = 0
	snapBufPool.Put(s)
}
