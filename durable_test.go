package lmfao

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDurableShardedCheckpointAfterFailedRound pins the recovery bound of a
// durable sharded session — recovery replays at most CheckpointEvery
// records — across a failed round: a round that crosses the interval and
// fails still gets its coordinated checkpoint, so by the end of the next
// round the checkpoint log has grown.
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
	records := func() int {
		t.Helper()
		recs, err := ReadShardCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	good := func(v float64) Update {
		return InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{v}))
	}
	if _, err := s.Apply(good(1)); err != nil {
		t.Fatal(err)
	}
	before := records()
	bad := DeleteRows("sales", IntColumn([]int64{2}), FloatColumn([]float64{999}))
	if _, err := s.Apply(bad); err == nil {
		t.Fatal("delete of a missing tuple succeeded")
	}
	if _, err := s.Apply(good(2)); err != nil {
		t.Fatal(err)
	}
	if got := records(); got <= before {
		t.Fatalf("checkpoint log has %d records after the round following a failed crossing, %d before it: the failed round skipped the interval", got, before)
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
