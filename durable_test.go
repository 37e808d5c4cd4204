package lmfao

import (
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
		ck, err := wal.LatestCheckpoint(ckptDir(shardDir(dir, i)))
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
