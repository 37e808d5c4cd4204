package lmfao

import (
	"testing"

	"repro/internal/data"
)

func insU(rel string, keys []int64, vals []float64) Update {
	return Update{Relation: rel, Inserts: []data.Column{data.NewIntColumn(keys), data.NewFloatColumn(vals)}}
}

func delU(rel string, keys []int64, vals []float64) Update {
	return Update{Relation: rel, Deletes: []data.Column{data.NewIntColumn(keys), data.NewFloatColumn(vals)}}
}

// TestShardedRunPartialFailureAtomic pins the staged-publish contract of
// a multi-shard Session.Run: when one shard's recompute fails, NO shard
// publishes — the merged head keeps serving the pre-Run epochs and values
// instead of mixing recomputed shards with stale ones. The failing shard is
// injected by closing one shard's writer directly: its stage job then fails
// deterministically with errSessionClosed while its already-published
// snapshot stays readable for the post-failure assertions.
func TestShardedRunPartialFailureAtomic(t *testing.T) {
	db := NewDatabase()
	store := db.Attr("store", Key)
	amount := db.Attr("amount", Numeric)
	if err := db.AddRelation(NewRelation("sales",
		[]AttrID{store, amount},
		[]Column{IntColumn([]int64{0, 1, 2, 3}), FloatColumn([]float64{1, 2, 3, 4})})); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{NewQuery("total", nil, Sum(amount), Count())}
	s, err := NewShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// A second full Run publishes on every shard: epochs advance in
	// lock-step. This is the all-success half of the atomicity contract.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	head := s.Head()
	preEpochs := head.Epochs()
	if preEpochs[0] != 2 || preEpochs[1] != 2 {
		t.Fatalf("epochs after two Runs = %v, want [2 2]", preEpochs)
	}
	preRow, ok := head.Lookup(0)
	if !ok {
		t.Fatal("scalar lookup failed on first snapshot")
	}

	// Inject a failing shard: close shard 1's writer, so its stage job
	// errors while shard 0's succeeds. Before the staged-publish fix, shard
	// 0 published its recompute before Run returned the error, leaving the
	// head a mix of epoch 3 (shard 0) and epoch 2 (shard 1).
	s.shards[1].close(false)
	if _, err := s.Run(); err == nil {
		t.Fatal("Run with a failing shard did not error")
	}
	post := s.Head()
	postEpochs := post.Epochs()
	for i := range preEpochs {
		if postEpochs[i] != preEpochs[i] {
			t.Fatalf("shard %d epoch advanced across a failed Run: %d -> %d (partial publish)",
				i, preEpochs[i], postEpochs[i])
		}
	}
	if row, ok := post.Lookup(0); !ok || row[0] != preRow[0] || row[1] != preRow[1] {
		t.Fatalf("merged lookup changed across a failed Run: %v -> %v (ok=%v)", preRow, row, ok)
	}
}

func TestCoalesceUpdates(t *testing.T) {
	updates := []Update{
		insU("F", []int64{1}, []float64{10}), // job 0
		insU("F", []int64{2}, []float64{20}), // job 1: merges into previous
		delU("F", []int64{3}, []float64{30}), // job 1: delete run starts
		delU("F", []int64{4}, []float64{40}), // job 2: merges into previous
		insU("G", []int64{5}, []float64{50}), // job 3: other relation
		insU("G", []int64{6}, []float64{60}), // job 3: merges
	}
	owner := []int{0, 1, 1, 2, 3, 3}
	out, firstJob := coalesceUpdates(updates, owner)
	if len(out) != 3 {
		t.Fatalf("coalesced into %d updates, want 3: %+v", len(out), out)
	}
	if got, want := out[0].InsertRows(), 2; got != want {
		t.Fatalf("out[0] has %d inserts, want %d", got, want)
	}
	if out[0].Inserts[0].Ints[0] != 1 || out[0].Inserts[0].Ints[1] != 2 {
		t.Fatalf("out[0] insert keys = %v, want [1 2]", out[0].Inserts[0].Ints)
	}
	if got, want := out[1].DeleteRows(), 2; got != want {
		t.Fatalf("out[1] has %d deletes, want %d", got, want)
	}
	if out[2].Relation != "G" || out[2].InsertRows() != 2 {
		t.Fatalf("out[2] = %+v, want 2 G-inserts", out[2])
	}
	// firstJob: the error-attribution boundary. A failure of out[1] must
	// taint jobs >= 1 (its first contributor), never job 0.
	want := []int{0, 1, 3}
	for i := range want {
		if firstJob[i] != want[i] {
			t.Fatalf("firstJob = %v, want %v", firstJob, want)
		}
	}
	// A mixed insert+delete update must never merge with its neighbors.
	mixed := []Update{
		insU("F", []int64{1}, []float64{1}),
		{Relation: "F",
			Inserts: []data.Column{data.NewIntColumn([]int64{2}), data.NewFloatColumn([]float64{2})},
			Deletes: []data.Column{data.NewIntColumn([]int64{1}), data.NewFloatColumn([]float64{1})}},
		insU("F", []int64{3}, []float64{3}),
	}
	out, _ = coalesceUpdates(mixed, []int{0, 1, 2})
	if len(out) != 3 {
		t.Fatalf("mixed update coalesced away: %d outputs, want 3", len(out))
	}
}
