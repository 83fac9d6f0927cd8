package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONL streams events as JSON Lines (one JSON object per line) to an
// io.Writer. Event kinds render as their string names. Create with
// NewJSONL; call Close when done. The first write error is latched and
// reported by Close.
type JSONL struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL tracer over w.
func NewJSONL(w io.Writer) *JSONL {
	buf := bufio.NewWriter(w)
	return &JSONL{buf: buf, enc: json.NewEncoder(buf)}
}

// Trace implements Tracer. Write errors are latched and surface on
// Close; once a write has failed, further events are dropped.
func (j *JSONL) Trace(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(ev)
}

// Close flushes buffered lines and reports the first write error. The
// underlying writer is not closed (the tracer did not open it).
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.buf.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// ReadJSONL parses a JSONL trace back into events, the round-trip
// counterpart of the JSONL tracer. Blank lines are skipped; a malformed
// line fails with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: jsonl read: %w", err)
	}
	return out, nil
}
