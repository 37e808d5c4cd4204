package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/wire"
)

// encodeCheckpointFile returns ck's whole file encoding from a memory
// Writer: the same encoder WriteCheckpoint streams through.
func encodeCheckpointFile(ck *Checkpoint) []byte {
	w := wire.NewBuffer(make([]byte, ckptHeader))
	encodeCheckpoint(w, ck)
	b := w.Bytes()
	putHeader(b, uint64(len(b)-ckptHeader), crc32.Checksum(b[ckptHeader:], castagnoli))
	return b
}

// appendBlock appends a column block's encoding to buf.
func appendBlock(buf []byte, cols []data.Column) []byte {
	w := wire.NewBuffer(buf)
	writeBlock(w, cols)
	return w.Bytes()
}

// appendString appends a length-prefixed string to buf.
func appendString(buf []byte, s string) []byte {
	w := wire.NewBuffer(buf)
	w.String(s)
	return w.Bytes()
}

// goldenCheckpoints are the SHA-256 digests of the testCheckpoints files as
// the whole-buffer LMFAOCK2 encoder wrote them before checkpoints were
// streamed. Streaming must not change a byte.
var goldenCheckpoints = []string{
	"efa459148d819563d6913449d24ecd7ab8effe6747accb834f0f8153e094dbde",
	"6cbaf48e6a5edfdeaca71e6c3b4701207e511e6c90e6cb0735ae5a5f49c49dba",
	"3091da2d5eb9a51a71f728a47edb97989e194fcb9ace5418b38e2be9eac4272f",
}

func TestCheckpointFormatPinned(t *testing.T) {
	dir := t.TempDir()
	for i, ck := range testCheckpoints(t) {
		if err := WriteCheckpoint(dir, ck, false); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, ckptName(ck.LSN)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != goldenCheckpoints[i] {
			t.Errorf("checkpoint %d: file sha256 %x, want %s", i, sum, goldenCheckpoints[i])
		}
		if !bytes.Equal(b, encodeCheckpointFile(ck)) {
			t.Errorf("checkpoint %d: streamed file differs from the memory encoding", i)
		}
	}
}

// bigCheckpoint returns a checkpoint of about 40 bytes per row: a relation
// of an int and a float column, and the count-and-sum view grouping it by
// its (distinct) int column. The odd row count puts words across chunk
// boundaries.
func bigCheckpoint(t testing.TB, rows int) *Checkpoint {
	t.Helper()
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	x := db.Attr("x", data.Numeric)
	keys, vals := make([]int64, rows), make([]float64, rows)
	for i := range keys {
		keys[i], vals[i] = int64(i)*7919, float64(i)*0.25-3
	}
	rel := data.NewRelation("r", []data.AttrID{a, x}, []data.Column{data.NewIntColumn(keys), data.NewFloatColumn(vals)})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	eng, err := moo.NewEngine(db, moo.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*query.Query{query.NewQuery("by a", []data.AttrID{a}, query.CountAgg(), query.SumAgg(x))})
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		LSN:       3,
		Versions:  ivm.VersionVector{"r": 1},
		Relations: []RelationState{{Name: "r", Version: 1, Order: []data.AttrID{a}, Cols: rel.Cols}},
		Views:     res.Materialized,
	}
}

// TestWriteCheckpointMemoryBounded: a streamed checkpoint allocates one
// chunk buffer, not a copy of the state it writes.
func TestWriteCheckpointMemoryBounded(t *testing.T) {
	ck := bigCheckpoint(t, 420_001)
	want := encodeCheckpointFile(ck)
	if len(want) < 16<<20 {
		t.Fatalf("state is %d bytes, want at least 16 MiB", len(want))
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteCheckpoint(dir, ck, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Errorf("WriteCheckpoint of %d bytes allocated %d bytes, want < 2 MiB", len(want), n)
	}
	got, err := os.ReadFile(filepath.Join(dir, ckptName(ck.LSN)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed file differs from the memory encoding")
	}
}

// TestTornCheckpointFallsBack: each way a streamed write can be torn —
// cut inside the header, cut inside the payload, or stopped before the
// header was written over its zeroed slot — is rejected, and recovery
// falls back to the previous checkpoint.
func TestTornCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	prev, last := *testCheckpoints(t)[2], *testCheckpoints(t)[2]
	prev.LSN, last.LSN = 1, 2
	for _, ck := range []*Checkpoint{&prev, &last} {
		if err := WriteCheckpoint(dir, ck, false); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, ckptName(last.LSN))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := bytes.Clone(whole)
	clear(zeroed[:ckptHeader])
	for name, b := range map[string][]byte{
		"cut in header":  whole[:ckptHeader/2],
		"cut in payload": whole[:ckptHeader+(len(whole)-ckptHeader)/2],
		"zeroed header":  zeroed,
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); err == nil {
			t.Errorf("%s: decoded", name)
		}
		got, err := LatestCheckpoint(dir)
		if err != nil || got == nil || !checkpointsEqual(got, &prev) {
			t.Errorf("%s: LatestCheckpoint = %+v, %v; want the checkpoint at LSN %d", name, got, err, prev.LSN)
		}
	}
}

// TestPruneSkipsWhatItCannotRemove: an entry that cannot be removed (a
// non-empty directory under a .tmp name) does not stop the prune of the
// rest.
func TestPruneSkipsWhatItCannotRemove(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "stuck"+tmpSuffix, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if err := WriteCheckpoint(dir, &Checkpoint{LSN: lsn}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "stale"+tmpSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PruneCheckpoints(dir, 2); err == nil {
		t.Fatal("prune reported no error for the stuck entry")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{ckptName(3), ckptName(4), "stuck" + tmpSuffix}
	if !slices.Equal(names, want) {
		t.Fatalf("after prune: %v, want %v", names, want)
	}
}

// BenchmarkWriteCheckpoint streams about 10 MB of relation and view state
// to a file, fsync and rename included; B/op stays near one chunk buffer.
func BenchmarkWriteCheckpoint(b *testing.B) {
	ck := bigCheckpoint(b, 262_144)
	dir := b.TempDir()
	b.SetBytes(int64(len(encodeCheckpointFile(ck))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCheckpoint(dir, ck, false); err != nil {
			b.Fatal(err)
		}
	}
}
