package wal

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodeStream feeds arbitrary bytes — including truncated and
// bit-flipped frames, the signature of a crash during append — through
// the replay decoder: it must never panic or error, returning only
// records that were completely and correctly framed. This is the
// torn-tail guarantee: a crash mid-write recovers to the last complete
// record instead of replaying garbage.
func FuzzDecodeStream(f *testing.F) {
	clean, _ := appendFrame(nil, &Record{Type: TypePrepare, Host: "H1", ID: "H1#1", Expiry: 3,
		Parts: []Part{{Resource: "cpu@H1", ID: 2, Amount: 1}}})
	two := append(append([]byte{}, clean...), clean...)
	f.Add(clean)
	f.Add(two)
	f.Add(two[:len(two)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte("not a frame at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end := decodeStream(data)
		if end < 0 || end > len(data) {
			t.Fatalf("decodeStream ended at %d of %d bytes", end, len(data))
		}
		// Every decoded record must re-encode: it came from a valid
		// frame, so it is a well-formed Record, not garbage.
		for i := range recs {
			if _, err := appendFrame(nil, &recs[i]); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
		// A stream that decodes fully with no torn tail must round-trip
		// its record count when re-framed.
		if end == len(data) {
			var buf []byte
			for i := range recs {
				var err error
				if buf, err = appendFrame(buf, &recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			again, end2 := decodeStream(buf)
			if end2 != len(buf) || len(again) != len(recs) {
				t.Fatalf("re-framed stream: %d records, ended at %d of %d bytes", len(again), end2, len(buf))
			}
		}
	})
}

// FuzzRecordEncoding holds the WAL's in-place record encoder to
// json.Marshal: for any record — strings with invalid UTF-8, HTML
// characters, control characters and line separators, floats at the
// 'f'/'e' boundaries, subnormals, -0, NaN and ±Inf — the two produce the
// same bytes, or both refuse the record.
func FuzzRecordEncoding(f *testing.F) {
	type floats struct{ expiry, amount float64 }
	for _, v := range []floats{
		{0, 0}, {math.Copysign(0, -1), math.Copysign(0, -1)}, {12.5, 1.25},
		{1e-7, 1e21}, {1e-6, 1e20}, {-1e-7, -1e21}, {5e-324, math.SmallestNonzeroFloat64 * 3},
		{math.MaxFloat64, 123456789.125}, {math.NaN(), 1}, {1, math.Inf(1)}, {math.Inf(-1), 0},
	} {
		f.Add("prepare", "H1", "H1#1", v.expiry, "commit", "cpu@H1", uint64(3), v.amount, "link:L1", uint64(7), uint8(3))
	}
	f.Add("", "", "", 0.0, "", "", uint64(0), 0.0, "", uint64(0), uint8(0))
	f.Add("lease", "net:H1->D1", "a&b<c>", 3.0, "\"q\"\\", "\x00\x1f\b\f\n\r\t\x7f", uint64(1<<63), 0.5, "\u2028\u2029", uint64(1), uint8(7))
	f.Add("\xff\xfe", "\xc3", "\xe2\x80", 1.0, "é日本\U0001F600", "\xed\xa0\x80", uint64(9), 2.0, "\xf4\x90\x80\x80", uint64(2), uint8(5))
	f.Fuzz(func(t *testing.T, typ, host, id string, expiry float64, outcome, res string, pid uint64,
		amount float64, link string, lid uint64, shape uint8) {
		rec := Record{Type: typ, Host: host, ID: id, Expiry: expiry, Outcome: outcome}
		// shape picks the part and link counts, so empty and nil
		// slices, one part and several parts with links all occur.
		switch shape % 4 {
		case 1:
			rec.Parts = []Part{}
		case 2:
			rec.Parts = []Part{{Resource: res, ID: pid, Amount: amount}}
		case 3:
			for i := 0; i < 3; i++ {
				p := Part{Resource: res, ID: pid + uint64(i), Amount: amount * float64(i)}
				for j := 0; j < int(shape/4)%3; j++ {
					p.Links = append(p.Links, Link{Resource: link, ID: lid + uint64(j)})
				}
				if shape&0x40 != 0 && p.Links == nil {
					p.Links = []Link{}
				}
				rec.Parts = append(rec.Parts, p)
			}
		}
		want, wantErr := json.Marshal(rec)
		got, err := appendRecord(nil, &rec)
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("json.Marshal error %v, appendRecord error %v", wantErr, err)
		}
		if err == nil && string(got) != string(want) {
			t.Fatalf("encoding differs:\n got %q\nwant %q", got, want)
		}
	})
}
