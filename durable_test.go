package lmfao

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// newestShardCheckpoints returns the newest valid checkpoint of each of the
// n shards of the durable sharded session under dir.
func newestShardCheckpoints(t *testing.T, dir string, n int) []*wal.Checkpoint {
	t.Helper()
	cks := make([]*wal.Checkpoint, n)
	for i := range cks {
		ck, err := wal.LatestCheckpoint(ckptDir(shardDir(dir, i, n)))
		if err != nil || ck == nil {
			t.Fatalf("shard %d: no checkpoint (err=%v)", i, err)
		}
		cks[i] = ck
	}
	return cks
}

// TestDurableShardedCheckpointAfterFailedRound pins the checkpoint interval
// of a durable sharded session — recovery re-applies at most
// CheckpointEvery records past the newest checkpoint, though it still
// decodes the whole log — across a failed round: a round that crosses the
// interval and fails still gets its coordinated checkpoint, so by the end
// of the next round some shard's newest checkpoint has moved past the LSN
// it had before.
func TestDurableShardedCheckpointAfterFailedRound(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{NewQuery("byregion", []AttrID{region}, Count(), Sum(amount))}
	dir := t.TempDir()
	s, err := NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{CheckpointEvery: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	good := func(v float64) Update {
		return InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{v}))
	}
	if _, err := s.Apply(good(1)); err != nil {
		t.Fatal(err)
	}
	before := newestShardCheckpoints(t, dir, s.NumShards())
	bad := DeleteRows("sales", IntColumn([]int64{2}), FloatColumn([]float64{999}))
	if _, err := s.Apply(bad); err == nil {
		t.Fatal("delete of a missing tuple succeeded")
	}
	if _, err := s.Apply(good(2)); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, ck := range newestShardCheckpoints(t, dir, s.NumShards()) {
		moved = moved || ck.LSN > before[i].LSN
	}
	if !moved {
		t.Fatalf("no shard checkpointed past its LSN before a failed round that crossed the interval: the failed round skipped the interval")
	}
}

// TestDurablePruneFailureKeepsCommitting: a checkpoint directory entry
// that pruning cannot remove (a non-empty directory under a .tmp name)
// fails no round. Each checkpoint is recorded once its file is durable, so
// checkpoints keep their interval and old files are still pruned.
func TestDurablePruneFailureKeepsCommitting(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{NewQuery("byregion", []AttrID{region}, Count(), Sum(amount))}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(ckptDir(dir), "stuck.tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	const keep = 2
	d, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{CheckpointEvery: 2, CheckpointKeep: keep}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Apply(InsertRows("sales", IntColumn([]int64{int64(i)}), FloatColumn([]float64{float64(i)}))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	ckpts, err := filepath.Glob(filepath.Join(ckptDir(dir), "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != keep {
		t.Fatalf("%d checkpoint files after 10 updates, want %d: %v", len(ckpts), keep, ckpts)
	}
	if d.sinceCkpt != 0 {
		t.Fatalf("%d updates since the last checkpoint, want 0 after 10 updates at interval 2", d.sinceCkpt)
	}
}

// requireSameState fails unless got serves exactly want's state: equal
// version vectors, shard by shard, and byte-identical outputs for every
// query.
func requireSameState(t *testing.T, got, want Queryable) {
	t.Helper()
	gv, wv := got.Versions(), want.Versions()
	if len(gv) != len(wv) {
		t.Fatalf("%d version vectors, want %d", len(gv), len(wv))
	}
	for i := range wv {
		if !gv[i].Equal(wv[i]) {
			t.Fatalf("shard %d: version vector %v, want %v", i, gv[i], wv[i])
		}
	}
	for q := 0; q < want.NumQueries(); q++ {
		if string(got.Result(q).AppendBinary(nil)) != string(want.Result(q).AppendBinary(nil)) {
			g, _ := got.Lookup(q)
			w, _ := want.Lookup(q)
			t.Fatalf("query %d differs (scalar lookup %v, want %v)", q, g, w)
		}
	}
}

// TestDurableRecoverReadsManifest pins that RecoverSession reads the
// directory's manifest: state written by a two-shard session recovers as
// two shards, bit-exact against the live session, without a one-shard
// layout appearing beside the shard directories. The creating constructors
// refuse a directory that already holds either layout, and RecoverSession
// one that holds neither.
func TestDurableRecoverReadsManifest(t *testing.T) {
	db, _, amount, _ := sessionFixture(t)
	pristine, _, _, _ := sessionFixture(t)
	queries := []*Query{NewQuery("total", nil, Count(), Sum(amount))}
	dir := t.TempDir()
	s, err := NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(InsertRows("sales", IntColumn([]int64{int64(i % 3)}), FloatColumn([]float64{float64(i + 1)}))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	s.Close()

	if _, err := NewDurableSession(db, queries, DefaultOptions(), DurableOptions{}, dir); err == nil {
		t.Fatal("NewDurableSession accepted a directory holding sharded state")
	}
	rec, err := RecoverSession(dir, pristine, queries, DefaultOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireSameState(t, rec.Snapshot(), want)
	if _, err := os.Stat(walDir(dir)); !os.IsNotExist(err) {
		t.Fatalf("recovery wrote a one-shard log beside the shards (stat err = %v)", err)
	}

	one := t.TempDir()
	d, err := NewDurableSession(pristine, queries, DefaultOptions(), DurableOptions{}, one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	fresh, _, _, _ := sessionFixture(t)
	if _, err := NewDurableShardedSession(fresh, queries, DefaultOptions(), ShardOptions{Shards: 2}, DurableOptions{}, one); err == nil {
		t.Fatal("NewDurableShardedSession accepted a directory holding one-shard state")
	}
	if _, err := RecoverSession(t.TempDir(), fresh, queries, DefaultOptions(), DurableOptions{}); err == nil {
		t.Fatal("RecoverSession recovered a directory holding no state")
	}
}

// TestDurableIntervalResumesAfterRecovery pins the one checkpoint
// interval rule for one shard and for two: routed updates count at the
// session, and a recovered session resumes the count from the records it
// replayed, so the update that completes the interval after a crash
// checkpoints every shard at its last LSN.
func TestDurableIntervalResumesAfterRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, amount, region := sessionFixture(t)
			pristine, _, _, _ := sessionFixture(t)
			queries := []*Query{NewQuery("byregion", []AttrID{region}, Count(), Sum(amount))}
			dopts := DurableOptions{CheckpointEvery: 4}
			dir := t.TempDir()
			s, err := NewDurableShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: shards}, dopts, dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			insert := func(s *Session, v float64) {
				t.Helper()
				if _, err := s.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{v}))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				insert(s, float64(i))
			}
			s.Kill()
			rec, err := RecoverSession(dir, pristine, queries, DefaultOptions(), dopts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			insert(rec, 3)
			for i := 0; i < shards; i++ {
				ck, err := wal.LatestCheckpoint(ckptDir(shardDir(dir, i, shards)))
				if err != nil || ck == nil {
					t.Fatalf("shard %d: no checkpoint (err=%v)", i, err)
				}
				if last := rec.Shard(i).LastLSN(); ck.LSN != last {
					t.Fatalf("shard %d: newest checkpoint at LSN %d after the fourth update, want its last LSN %d", i, ck.LSN, last)
				}
			}
		})
	}
}
