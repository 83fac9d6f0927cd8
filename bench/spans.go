package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program itself is not instrumented). Start and End are
// nanoseconds since the recorder's epoch; Parent is the ID of the span
// that caused this one (0 for a root); spans of one admission share
// Session.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Session int64  `json:"session"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// scope prefixes the names of spans opened while it is set, so the
	// same call sites can be told apart across the traced run's passes
	// ("budget/http.establish"). Set between passes only.
	scope string
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) start(name string, parent int, session int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: r.scope + name, Start: now, Parent: parent, Session: session})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// (parallel calls) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, edge int64
		edge = s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			if c.lo > edge {
				edge = c.lo
			}
			covered += c.hi - edge
			edge = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanMedians groups completed spans by name and returns the median
// duration and median self time of each, in microseconds.
func spanMedians(spans []span) (dur, self map[string]float64) {
	st := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(st[s.ID])/1e3)
	}
	dur = map[string]float64{}
	self = map[string]float64{}
	for name, v := range durs {
		dur[name] = median(v)
		self[name] = median(selfs[name])
	}
	return dur, self
}
