package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TypePrepare, Host: "H2", ID: "H2#1", Expiry: 12.5, Parts: []Part{
			{Resource: "cpu@H2", ID: 3, Amount: 1.25},
			{Resource: "net:H4->H2", ID: 1, Amount: 0.5, Links: []Link{
				{Resource: "link:L1", ID: 7}, {Resource: "link:L2", ID: 9},
			}},
		}},
		{Type: TypeDecide, Host: "H2", ID: "H2#1", Outcome: "commit", Expiry: 12.5},
		{Type: TypeCommit, Host: "H2", ID: "H2#1", Expiry: 12.5},
		{Type: TypeLease, Host: "H2", ID: "H2#1", Expiry: 22.5},
		{Type: TypeRelease, Host: "H2", ID: "H2#1"},
		{Type: TypeAbort, Host: "H3", ID: "H2#2"},
	}
}

// TestAppendReplayRoundTrip proves that appended records replay
// byte-identically, in order.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean log replayed as torn")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayAcrossReopen proves that a log closed, reopened, and
// appended to replays the full history in order.
func TestReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, NoSync: true}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypePrepare, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeCommit, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, torn, err := Replay(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(got) != 2 || got[0].Type != TypePrepare || got[1].Type != TypeCommit {
		t.Fatalf("unexpected records: %+v", got)
	}
}

// TestSegmentRotation proves a log past the segment threshold rotates
// into multiple segment files and still replays every record in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(Record{Type: TypeLease, ID: "H1#1", Expiry: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}
	got, torn, err := Replay(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, rec := range got {
		if rec.Expiry != float64(i) {
			t.Fatalf("record %d out of order: %+v", i, rec)
		}
	}
}

// TestCheckpointCompacts proves Checkpoint replaces history with the
// snapshot: older segments are deleted and replay yields snapshot plus
// tail only.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(Record{Type: TypePrepare, ID: "old"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []Record{
		{Type: TypePrepare, ID: "live", Expiry: 5},
		{Type: TypeCommit, ID: "live", Expiry: 5},
	}
	if err := l.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeLease, ID: "live", Expiry: 9}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", len(segs))
	}
	got, torn, err := Replay(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	want := append(append([]Record{}, snap...), Record{Type: TypeLease, ID: "live", Expiry: 9})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestTornTailEveryOffset simulates a crash during append by truncating
// the final record at every possible byte offset: replay must return
// exactly the preceding complete records and flag the tail as torn,
// never erroring and never producing a garbage record.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, "wal-00000001.log")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the start of the final frame by walking the frames.
	lastStart := 0
	off := 0
	for off < len(full) {
		lastStart = off
		n := int(uint32(full[off])<<24 | uint32(full[off+1])<<16 | uint32(full[off+2])<<8 | uint32(full[off+3]))
		off += 8 + n
	}
	for cut := lastStart; cut < len(full); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, "wal-00000001.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := Replay(tdir)
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		if cut == lastStart {
			if torn {
				t.Fatalf("cut=%d: clean frame boundary flagged torn", cut)
			}
		} else if !torn {
			t.Fatalf("cut=%d: torn tail not detected", cut)
		}
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
			t.Fatalf("cut=%d: got %d records, want the %d complete ones", cut, len(got), len(recs)-1)
		}
	}
}

// TestTornMiddleSegmentErrors proves damage before the end of the log is
// corruption, not a tolerated torn tail.
func TestTornMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Type: TypeCommit, ID: "x", Expiry: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	first := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(dir); err == nil {
		t.Fatal("mid-log truncation replayed without error")
	}
}

// TestCorruptCRCTornTail proves a bit-flip in the final record's payload
// is treated as a torn tail (CRC mismatch), dropping only that record.
func TestCorruptCRCTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypePrepare, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeCommit, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(got) != 1 || got[0].Type != TypePrepare {
		t.Fatalf("torn=%v records=%+v", torn, got)
	}
}

// TestReplayMissingDir proves an absent log directory replays to zero
// records — a cold start is not an error.
func TestReplayMissingDir(t *testing.T) {
	got, torn, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || torn || len(got) != 0 {
		t.Fatalf("got %v torn=%v err=%v", got, torn, err)
	}
}

// TestReadAllStream exercises the reader-based decoder used by the fuzz
// harness.
func TestReadAllStream(t *testing.T) {
	buf, err := appendFrame(nil, &Record{Type: TypeAbort, ID: "z"})
	if err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadAll(bytes.NewReader(buf))
	if err != nil || torn || len(got) != 1 || got[0].ID != "z" {
		t.Fatalf("got %+v torn=%v err=%v", got, torn, err)
	}
}

// TestOpenTruncatesTornTail: a crash mid-append leaves half a frame at
// the end of the newest segment. Reopening the log must cut it off
// before appending, so the next record is not written behind the torn
// frame — where Replay, stopping at the first bad frame, would never
// reach it, and where, once the segment rotated, the log would not
// replay at all.
func TestOpenTruncatesTornTail(t *testing.T) {
	first := Record{Type: TypeCommit, Host: "H1", ID: "H1/1", Expiry: 5}
	second := Record{Type: TypeCommit, Host: "H1", ID: "H1/2", Expiry: 6}
	third := Record{Type: TypeCommit, Host: "H1", ID: "H1/3", Expiry: 7}
	half, err := appendFrame(nil, &Record{Type: TypePrepare, Host: "H1", ID: "H1/torn",
		Parts: []Part{{Resource: "cpu@H1", ID: 1, Amount: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	half = half[:len(half)/2]
	crash := func(t *testing.T, dir string) {
		t.Helper()
		l, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(first); err != nil {
			t.Fatal(err)
		}
		l.Close()
		f, err := os.OpenFile(filepath.Join(dir, "wal-00000001.log"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(half); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("append after torn tail", func(t *testing.T) {
		dir := t.TempDir()
		crash(t, dir)
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(second); err != nil {
			t.Fatal(err)
		}
		l.Close()
		got, torn, err := Replay(dir)
		if err != nil || torn {
			t.Fatalf("replay: torn=%v err=%v", torn, err)
		}
		if want := []Record{first, second}; !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after reopen:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("rotation after torn tail", func(t *testing.T) {
		dir := t.TempDir()
		crash(t, dir)
		// A one-byte threshold rotates after every append, sealing the
		// segment that held the torn tail.
		l, err := Open(Options{Dir: dir, SegmentBytes: 1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []Record{second, third} {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		got, torn, err := Replay(dir)
		if err != nil || torn {
			t.Fatalf("replay: torn=%v err=%v", torn, err)
		}
		if want := []Record{first, second, third}; !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after rotation:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestAppendAllocs: the log frames every record into a buffer it owns,
// so a warmed log appends a prepare record of three parts with links
// without allocating.
func TestAppendAllocs(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Type: TypePrepare, Host: "H1", ID: "H1#42", Expiry: 612.5, Parts: []Part{
		{Resource: "cpu@H1", ID: 11, Amount: 1.25},
		{Resource: "net:H1->D1", ID: 12, Amount: 104, Links: []Link{{Resource: "link:L1", ID: 13}, {Resource: "link:L2", ID: 14}}},
		{Resource: "disk@D1", ID: 15, Amount: 0.5},
	}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per append, want 0", allocs)
	}
}
