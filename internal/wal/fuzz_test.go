package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/data"
)

// FuzzWALRecord exercises the record codec with arbitrary byte strings and
// with mutations of valid frames. The decoder must never panic, must reject
// any frame whose checksum no longer matches its payload, and must report
// every proper prefix of a valid frame as ErrTruncated.
func FuzzWALRecord(f *testing.F) {
	seed := [][]byte{
		AppendRecord(nil, Record{LSN: 1, Delta: testDelta(0)}),
		AppendRecord(nil, Record{LSN: 1 << 40, Delta: data.Delta{Relation: "r"}}),
		AppendRecord(nil, Record{LSN: 3, Delta: data.Delta{
			Relation: "wide",
			Inserts: []data.Column{
				data.NewIntColumn([]int64{-1, 0, 1}),
				data.NewFloatColumn([]float64{0.1, -0.2, 3e300}),
				data.NewIntColumn([]int64{7, 8, 9}),
			},
		}}),
		AppendRecord(nil, Record{LSN: 2, Delta: data.Delta{
			Relation: "delonly",
			Deletes:  []data.Column{data.NewFloatColumn([]float64{1.5})},
		}}),
		{},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decoded %d bytes of %d", n, len(b))
		}
		// Whatever decoded must re-encode to an identical frame: the codec is
		// canonical, so decode(encode(decode(b))) is a fixed point.
		re := AppendRecord(nil, rec)
		rec2, n2, err := DecodeRecord(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encode failed: n=%d err=%v", n2, err)
		}
		if rec2.LSN != rec.LSN || !deltasEqual(rec2.Delta, rec.Delta) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", rec, rec2)
		}
		// Every proper prefix of the canonical frame is a torn write.
		for cut := 0; cut < len(re); cut += 1 + len(re)/16 {
			if _, _, err := DecodeRecord(re[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("prefix %d/%d: err=%v, want ErrTruncated", cut, len(re), err)
			}
		}
		// Flipping any payload byte must be caught by the checksum.
		for off := frameHeaderLen; off < len(re); off += 1 + len(re)/16 {
			bad := append([]byte(nil), re...)
			bad[off] ^= 0x20
			if _, _, err := DecodeRecord(bad); err == nil {
				t.Fatalf("payload flip at %d went undetected", off)
			}
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes, and LMFAOCK1 and LMFAOCK2
// encodings, to the checkpoint file decoder. It must never panic, and
// whatever decodes must survive a round trip through the current encoder:
// the decoded state is unchanged and the encoding is a fixed point.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, ck := range testCheckpoints(f) {
		f.Add(encodeCheckpointFile(ck))
		f.Add(encodeCheckpointV1(ck))
	}
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := decodeCheckpointFile(b)
		if err != nil {
			return
		}
		re := encodeCheckpointFile(ck)
		ck2, err := decodeCheckpointFile(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !checkpointsEqual(ck, ck2) {
			t.Fatalf("round trip mismatch\nfirst  %+v\nsecond %+v", ck, ck2)
		}
		if !bytes.Equal(encodeCheckpointFile(ck2), re) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
