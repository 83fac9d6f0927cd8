// Package wal is the write-ahead log behind the durable reservation
// books (DESIGN.md "Durability & crash recovery"). It persists the
// prepare/commit/abort/lease/release record stream that the idempotent
// 2PC paths already emit, so a crashed QoSProxy can rebuild its book,
// its idempotency table, and its lease expiries by replay instead of
// forgetting every hold.
//
// The format is deliberately simple: a directory of numbered segment
// files, each an append-only sequence of CRC-framed JSON records:
//
//	[4B big-endian payload length][4B big-endian CRC32(payload)][payload]
//
// The payload is a Record's JSON encoding, written by an in-place
// encoder pinned byte-identical to json.Marshal (see appendRecord), and
// Append frames it into a buffer the Log owns, so a record allocates
// nothing in steady state.
//
// Append fsyncs before returning (unless Options.NoSync, for tests), so
// a record returned as appended survives a crash. A crash during append
// leaves a torn tail — a truncated frame or a CRC mismatch at the end of
// the newest segment — which Replay tolerates by returning every record
// up to the last complete one, and which Open cuts off before appending
// behind it. Corruption anywhere else (a bad frame in the middle of a
// segment, or in an older segment) is an error, not a torn tail.
//
// Checkpoint rotates to a fresh segment seeded with a caller-provided
// snapshot of live state and deletes the older segments, bounding replay
// work. Snapshot records are ordinary records: replaying a checkpointed
// log is the same code path as replaying a raw one.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record type tags. One Record struct covers every type; unused fields
// stay at their zero value and are omitted from the encoding.
const (
	// TypePrepare journals a successful participant prepare: the holds
	// (Parts) taken, under lease until Expiry. Refused prepares are not
	// journaled — they leave no state worth recovering.
	TypePrepare = "prepare"
	// TypeCommit journals a participant commit with the renewed Expiry.
	TypeCommit = "commit"
	// TypeAbort journals a participant abort (holds released) or an
	// abort tombstone for a request never prepared here.
	TypeAbort = "abort"
	// TypeDecide journals the coordinator's commit point, fsynced before
	// the commit fan-out. Only commit decisions are journaled: a request
	// with no decide record is presumed aborted.
	TypeDecide = "decide"
	// TypeLease journals a lease renewal (heartbeat) for a committed
	// reservation on one participant host.
	TypeLease = "lease"
	// TypeRelease journals a clean teardown of a committed reservation
	// on one participant host.
	TypeRelease = "release"
	// TypeShrink journals a mid-session downgrade on one participant
	// host: the reservation's surviving holds (Parts) after surplus was
	// shrunk away. Replay replaces the request's remembered parts whole,
	// so a recovered book carries the post-downgrade amounts.
	TypeShrink = "shrink"
	// TypeDeployment names the deployment that writes the log: ID is a
	// fingerprint of its hosts, resources, capacities and routes.
	// Recovery refuses a log whose fingerprint is not its own.
	TypeDeployment = "deployment"
)

// Link identifies one per-link hold a legacy network part owned (see
// Part.Links).
type Link struct {
	Resource string `json:"resource"`
	ID       uint64 `json:"id"`
}

// Part is one hold of a multi-resource reservation: the broker resource
// (a local resource or a link), the hold's reservation ID and its
// amount. Links is written only by logs from before network
// reservations were held as their link holds: such a part names the
// network resource and the per-link holds it owned, each of the part's
// amount. New records never set it; replay still reads it.
type Part struct {
	Resource string  `json:"resource"`
	ID       uint64  `json:"id"`
	Amount   float64 `json:"amount"`
	Links    []Link  `json:"links,omitempty"`
}

// Record is one journaled event. Host names the proxy whose book the
// record belongs to; ID is the 2PC request ID (a deployment record's
// fingerprint); Expiry is a broker.Time
// lease expiry; Outcome carries the decide verdict; Parts carries hold
// detail for prepare and shrink records.
type Record struct {
	Type    string  `json:"type"`
	Host    string  `json:"host,omitempty"`
	ID      string  `json:"id,omitempty"`
	Expiry  float64 `json:"expiry,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	Parts   []Part  `json:"parts,omitempty"`
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold; a segment that grows past
	// it is closed and a new one started. Zero means 1 MiB.
	SegmentBytes int64
	// NoSync skips the fsync on every append. Only for tests: a NoSync
	// log does not survive a machine crash, though it still survives a
	// process crash.
	NoSync bool
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 1 << 20

// maxRecordBytes bounds a single framed payload; a length prefix beyond
// it is treated as corruption rather than an allocation request.
const maxRecordBytes = 1 << 24

const segmentPrefix = "wal-"
const segmentSuffix = ".log"

// Log is an append-only, CRC-framed, segment-rotated record log. Safe
// for concurrent use.
type Log struct {
	opts Options

	mu   sync.Mutex
	f    *os.File
	seq  int
	size int64
	buf  []byte // frame scratch, reused by every append
}

// Open opens (or creates) the log in opts.Dir and positions appends at
// the end of the newest segment's last complete record. A torn tail — a
// crash mid-append — is truncated away (and the truncation fsynced
// unless NoSync) first: a record appended behind it would be invisible
// to Replay, which stops at the first bad frame, and once the segment
// rotated the log would no longer replay at all.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, seq: 1}
	if len(segs) > 0 {
		l.seq = segs[len(segs)-1]
	}
	path := l.segmentPath(l.seq)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	_, end := decodeStream(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if end < len(data) {
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
	}
	l.f, l.size = f, int64(end)
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

func (l *Log) segmentPath(seq int) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// segments lists the segment sequence numbers in dir, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
		if err != nil || n <= 0 {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// appendFrame appends rec to dst as one [len][crc][payload] frame.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := appendRecord(dst, rec)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// writeFrameLocked frames rec into the Log's buffer and writes it.
func (l *Log) writeFrameLocked(rec *Record) error {
	buf, err := appendFrame(l.buf[:0], rec)
	l.buf = buf
	if err != nil {
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(len(buf))
	return nil
}

// Append journals one record: frame, write, fsync (unless NoSync),
// rotate when the segment has grown past the threshold. When Append
// returns nil the record is durable in log order.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.writeFrameLocked(&rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked closes the current segment and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.seq++
	f, err := os.OpenFile(l.segmentPath(l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// Checkpoint rotates to a fresh segment, seeds it with the given
// snapshot records (ordinary records that replay through the same code
// path), fsyncs once, and deletes every older segment. After a
// checkpoint, replay cost is proportional to live state plus the tail
// written since.
func (l *Log) Checkpoint(snapshot []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	old := l.seq
	if err := l.rotateLocked(); err != nil {
		return err
	}
	for i := range snapshot {
		if err := l.writeFrameLocked(&snapshot[i]); err != nil {
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: checkpoint sync: %w", err)
		}
	}
	segs, err := segments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s <= old {
			if err := os.Remove(l.segmentPath(s)); err != nil {
				return fmt.Errorf("wal: checkpoint prune: %w", err)
			}
		}
	}
	return nil
}

// Close closes the current segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay reads every record in dir in log order. A torn tail — a
// truncated frame or CRC mismatch at the end of the newest segment, the
// signature of a crash mid-append — is tolerated: Replay returns the
// records up to the last complete one and torn=true. The same damage in
// an older segment is corruption and returns an error. A missing or
// empty directory replays to zero records.
func Replay(dir string) (records []Record, torn bool, err error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, false, err
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
		recs, segTorn, err := replaySegment(path)
		if err != nil {
			return nil, false, err
		}
		if segTorn && !last {
			return nil, false, fmt.Errorf("wal: segment %s: torn record before end of log", path)
		}
		records = append(records, recs...)
		torn = segTorn
	}
	return records, torn, nil
}

// replaySegment decodes one segment; torn reports an incomplete or
// corrupt trailing region (everything before it decoded cleanly).
func replaySegment(path string) ([]Record, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("wal: %w", err)
	}
	recs, end := decodeStream(data)
	return recs, end < len(data), nil
}

// ReadAll is Replay plus an io.Reader form used by tests: it decodes a
// single framed stream, tolerating a torn tail.
func ReadAll(r io.Reader) ([]Record, bool, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, err
	}
	recs, end := decodeStream(data)
	return recs, end < len(data), nil
}

// decodeStream decodes a framed byte stream up to its first truncated or
// corrupt frame. end is the offset just past the last complete record:
// a stream with a torn tail has end < len(data).
func decodeStream(data []byte) (out []Record, end int) {
	for end < len(data) {
		if len(data)-end < 8 {
			return out, end
		}
		n := int(binary.BigEndian.Uint32(data[end : end+4]))
		sum := binary.BigEndian.Uint32(data[end+4 : end+8])
		if n > maxRecordBytes || len(data)-end-8 < n {
			return out, end
		}
		payload := data[end+8 : end+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return out, end
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return out, end
		}
		out = append(out, rec)
		end += 8 + n
	}
	return out, end
}
