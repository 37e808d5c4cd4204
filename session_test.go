package lmfao

import (
	"runtime"
	"slices"
	"testing"
)

// sessionFixture builds sales(store, amount) ⋈ stores(store, region).
func sessionFixture(t *testing.T) (*Database, AttrID, AttrID, AttrID) {
	t.Helper()
	db := NewDatabase()
	store := db.Attr("store", Key)
	amount := db.Attr("amount", Numeric)
	region := db.Attr("region", Categorical)
	if err := db.AddRelation(NewRelation("sales",
		[]AttrID{store, amount},
		[]Column{IntColumn([]int64{0, 0, 1, 1, 2}), FloatColumn([]float64{1, 2, 3, 4, 5})})); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(NewRelation("stores",
		[]AttrID{store, region},
		[]Column{IntColumn([]int64{0, 1, 2}), IntColumn([]int64{10, 10, 20})})); err != nil {
		t.Fatal(err)
	}
	return db, store, amount, region
}

func lookupRow(t *testing.T, r *Result, key ...int64) []float64 {
	t.Helper()
	i := r.Lookup(key...)
	if i < 0 {
		t.Fatalf("key %v not in result", key)
	}
	row := make([]float64, r.Stride)
	for c := range row {
		row[c] = r.Val(i, c)
	}
	return row
}

func TestSessionIncrementalMaintenance(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if got := lookupRow(t, sess.Result().Results[0], 10)[1]; got != 10 {
		t.Fatalf("initial SUM(amount) region 10 = %g, want 10", got)
	}

	// Insert two sales at store 0 (region 10), delete the store-2 sale
	// (region 20's only tuple).
	stats, err := sess.Apply(Update{
		Relation: "sales",
		Inserts:  []Column{IntColumn([]int64{0, 0}), FloatColumn([]float64{10, 20})},
		Deletes:  []Column{IntColumn([]int64{2}), FloatColumn([]float64{5})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || !stats[0].Incremental {
		t.Fatalf("expected one incremental maintenance pass, got %+v", stats)
	}
	res := sess.Result()
	if got := lookupRow(t, res.Results[0], 10); got[0] != 6 || got[1] != 40 {
		t.Fatalf("region 10 after update = %v, want [6 40 ...]", got)
	}
	if res.Results[0].Lookup(20) >= 0 {
		t.Fatal("region 20 should vanish after its only tuple was deleted")
	}
	if got := lookupRow(t, res.Results[1])[0]; got != 40 {
		t.Fatalf("scalar total after update = %g, want 40", got)
	}
}

// TestSessionSnapshotIsolation pins the publication protocol: a snapshot
// acquired before a maintenance round keeps serving the old version,
// bit-exact, after the round commits a new one.
func TestSessionSnapshotIsolation(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Head() != nil {
		t.Fatal("snapshot published before first Run")
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	old := sess.Head()
	if old == nil || old.Epoch() != 1 {
		t.Fatalf("first snapshot = %+v, want epoch 1", old)
	}
	oldVV := old.VersionVector()

	if _, err := sess.Apply(Update{
		Relation: "sales",
		Inserts:  []Column{IntColumn([]int64{0, 0}), FloatColumn([]float64{10, 20})},
		Deletes:  []Column{IntColumn([]int64{2}), FloatColumn([]float64{5})},
	}); err != nil {
		t.Fatal(err)
	}
	cur := sess.Head()
	if cur.Epoch() <= old.Epoch() {
		t.Fatalf("epoch did not advance: %d after %d", cur.Epoch(), old.Epoch())
	}
	if cur.VersionVector().Equal(oldVV) {
		t.Fatalf("version vector unchanged across a mutating round: %v", oldVV)
	}
	if got, want := cur.VersionVector()["sales"], oldVV["sales"]+1; got != want {
		t.Fatalf("sales version = %d, want %d (one step per delta)", got, want)
	}

	// The old snapshot still serves the pre-update state.
	if row, ok := old.Lookup(0, 10); !ok || row[0] != 4 || row[1] != 10 {
		t.Fatalf("old snapshot region 10 = %v %v, want [4 10]", row, ok)
	}
	if row, ok := old.Lookup(0, 20); !ok || row[1] != 5 {
		t.Fatalf("old snapshot region 20 = %v %v, want [1 5]", row, ok)
	}
	if row, ok := old.Lookup(1); !ok || row[0] != 15 {
		t.Fatalf("old snapshot total = %v %v, want [15]", row, ok)
	}
	// The new snapshot serves the post-update state; region 20 vanished.
	if row, ok := cur.Lookup(0, 10); !ok || row[0] != 6 || row[1] != 40 {
		t.Fatalf("new snapshot region 10 = %v %v, want [6 40]", row, ok)
	}
	if _, ok := cur.Lookup(0, 20); ok {
		t.Fatal("region 20 still present after its only tuple was deleted")
	}
	// Lookup trims the hidden count column: rows have exactly the query's
	// aggregates.
	if row, _ := cur.Lookup(0, 10); len(row) != 2 {
		t.Fatalf("lookup row has %d cols, want 2 (hidden count trimmed)", len(row))
	}
}

func TestSessionApplyAsync(t *testing.T) {
	db, _, amount, _ := sessionFixture(t)
	sess, err := NewSession(db, []*Query{NewQuery("total", nil, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	before := sess.Head()
	res := <-sess.ApplyAsync(InsertRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{85})))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Stats) != 1 || !res.Stats[0].Incremental {
		t.Fatalf("async stats = %+v, want one incremental pass", res.Stats)
	}
	after := sess.Head()
	if after.Epoch() <= before.Epoch() {
		t.Fatalf("async round did not publish: epoch %d after %d", after.Epoch(), before.Epoch())
	}
	if row, ok := after.Lookup(0); !ok || row[0] != 100 {
		t.Fatalf("total after async apply = %v %v, want [100]", row, ok)
	}
	if row, ok := before.Lookup(0); !ok || row[0] != 15 {
		t.Fatalf("pre-async snapshot total = %v %v, want [15]", row, ok)
	}
}

func TestSessionApplyBeforeRun(t *testing.T) {
	db, _, amount, _ := sessionFixture(t)
	sess, err := NewSession(db, []*Query{NewQuery("total", nil, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Applying before the first Run mutates the base and computes fresh.
	if _, err := sess.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{100}))); err != nil {
		t.Fatal(err)
	}
	if got := lookupRow(t, sess.Result().Results[0])[0]; got != 115 {
		t.Fatalf("total = %g, want 115", got)
	}
}

func TestSessionDeleteMissingRowFails(t *testing.T) {
	db, _, amount, _ := sessionFixture(t)
	sess, err := NewSession(db, []*Query{NewQuery("total", nil, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(DeleteRows("sales", IntColumn([]int64{9}), FloatColumn([]float64{9}))); err == nil {
		t.Fatal("deleting a non-existent tuple succeeded")
	}
	// The failed update must not have corrupted the maintained state.
	if got := lookupRow(t, sess.Result().Results[0])[0]; got != 15 {
		t.Fatalf("total after failed delete = %g, want 15", got)
	}
}

// TestSessionMalformedUpdateTouchesNothing: an update whose insert block does
// not fit the relation is rejected whole — its valid deletes included — so
// the base, its version and the served views stay as they were, and the
// next valid update is maintained from there.
func TestSessionMalformedUpdateTouchesNothing(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// servedMatchesRun requires the served snapshot to hold exactly the
	// groups and aggregates a fresh engine computes over the current base.
	servedMatchesRun := func(when string) {
		t.Helper()
		eng, err := NewEngine(db, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		head := sess.Head()
		for q := range queries {
			got, fresh := head.Result(q), want.Results[q]
			if got.NumRows() != fresh.NumRows() {
				t.Fatalf("%s: %s serves %d groups, a fresh run has %d", when, queries[q].Name, got.NumRows(), fresh.NumRows())
			}
			for i := 0; i < fresh.NumRows(); i++ {
				row, ok := head.Lookup(q, fresh.Key(i)...)
				if !ok {
					t.Fatalf("%s: %s lacks group %v", when, queries[q].Name, fresh.Key(i))
				}
				for c, v := range row {
					if v != fresh.Val(i, c) {
						t.Fatalf("%s: %s group %v column %d = %g, fresh run %g", when, queries[q].Name, fresh.Key(i), c, v, fresh.Val(i, c))
					}
				}
			}
		}
	}
	sales := db.Relation("sales")
	stores, amounts, version := slices.Clone(sales.Cols[0].Ints), slices.Clone(sales.Cols[1].Floats), sales.Version()

	_, err = sess.Apply(Update{
		Relation: "sales",
		Deletes:  []Column{IntColumn([]int64{2}), FloatColumn([]float64{5})},
		Inserts:  []Column{IntColumn([]int64{0})}, // one column short
	})
	if err == nil {
		t.Fatal("an update with a short insert block succeeded")
	}
	if !slices.Equal(sales.Cols[0].Ints, stores) || !slices.Equal(sales.Cols[1].Floats, amounts) || sales.Version() != version {
		t.Fatalf("the rejected update moved sales to %v %v at version %d, from %v %v at %d",
			sales.Cols[0].Ints, sales.Cols[1].Floats, sales.Version(), stores, amounts, version)
	}
	servedMatchesRun("after the rejected update")

	if _, err := sess.Apply(InsertRows("sales", IntColumn([]int64{2}), FloatColumn([]float64{7}))); err != nil {
		t.Fatal(err)
	}
	servedMatchesRun("after the next valid update")
}

// TestKernelCacheScopedToLivePlan runs an engine many times, collecting the
// previous plan in between, and maintains each new plan twice: a plan built
// by a later Run can be allocated where a collected one lived, and must
// still never be served kernels compiled for the old plan, nor may kernels
// of dead plans stay resident. (A session plans once and keeps its kernels
// across recomputes: TestSessionRunKeepsKernels.)
func TestKernelCacheScopedToLivePlan(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	opts := DefaultOptions()
	opts.TrackCounts = true
	eng, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(res *BatchResult, u Update) *BatchResult {
		t.Helper()
		if err := db.ApplyDelta(u); err != nil {
			t.Fatal(err)
		}
		res, _, err := eng.Apply(res, u)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	size := -1
	for round := 0; round < 20; round++ {
		res, err := eng.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		before := eng.KernelCacheStats()
		res = apply(res, InsertRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{2})))
		first := eng.KernelCacheStats()
		if first.Hits != before.Hits || first.Misses == before.Misses {
			t.Fatalf("round %d: the new plan's first Apply hit the cache: %+v -> %+v", round, before, first)
		}
		apply(res, DeleteRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{2})))
		second := eng.KernelCacheStats()
		if second.Hits == first.Hits {
			t.Fatalf("round %d: the second Apply reused no kernel: %+v -> %+v", round, first, second)
		}
		if size < 0 {
			size = second.Size
		} else if second.Size != size {
			t.Fatalf("round %d: kernel cache holds %d kernels, %d after the first round", round, second.Size, size)
		}
	}
}

// TestSessionRunKeepsKernels: a session's recompute runs the plan the
// session built at construction, so the kernels its Applies compiled stay
// valid and the Apply after a Run reuses them.
func TestSessionRunKeepsKernels(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	sess, err := NewSession(db, []*Query{
		NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		before := sess.Engine().KernelCacheStats()
		if _, err := sess.Apply(InsertRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{2}))); err != nil {
			t.Fatal(err)
		}
		after := sess.Engine().KernelCacheStats()
		if hit := after.Hits != before.Hits; hit != (round > 0) {
			t.Fatalf("round %d: Apply after Run hit the kernel cache: %v (%+v -> %+v)", round, hit, before, after)
		}
		if sess.Result().Plan != sess.shards[0].plan {
			t.Fatalf("round %d: the session published a result of another plan", round)
		}
	}
}

// TestOneShardPresetsAgree pins that every one-shard preset builds the same
// session: NewSession, NewShardedSession with Shards: 1 and
// NewDurableSession, fed one update stream (a failing delete included),
// publish bit-identical snapshots — epochs, version vectors and every
// materialized view, hidden counts included — after each call.
func TestOneShardPresetsAgree(t *testing.T) {
	mk := func(name string) *Session {
		db, store, amount, region := sessionFixture(t)
		queries := []*Query{
			NewQuery("byregion", []AttrID{region}, Count(), Sum(amount)),
			NewQuery("total", nil, Sum(amount)),
		}
		queries[1].MonoidAggs = []MonoidAgg{MinOf(store), MaxOf(store)}
		var s *Session
		var err error
		switch name {
		case "session":
			s, err = NewSession(db, queries, DefaultOptions())
		case "sharded":
			s, err = NewShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: 1})
		case "durable":
			s, err = NewDurableSession(db, queries, DefaultOptions(), DurableOptions{CheckpointEvery: 2}, t.TempDir())
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(s.Close)
		if s.NumShards() != 1 || s.Engine().DB() != db {
			t.Fatalf("%s: %d shards, database adopted: %v", name, s.NumShards(), s.Engine().DB() == db)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	names := []string{"session", "sharded", "durable"}
	sessions := make([]*Session, len(names))
	for i, name := range names {
		sessions[i] = mk(name)
	}
	stream := [][]Update{
		{InsertRows("sales", IntColumn([]int64{0, 2}), FloatColumn([]float64{7, 8}))},
		{DeleteRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{3}))},
		{DeleteRows("sales", IntColumn([]int64{2}), FloatColumn([]float64{999}))}, // fails
		{InsertRows("stores", IntColumn([]int64{3}), IntColumn([]int64{30})),
			InsertRows("sales", IntColumn([]int64{3, 3}), FloatColumn([]float64{1, 2}))},
		{},
	}
	for step, updates := range stream {
		var wantErr bool
		for i, s := range sessions {
			_, err := s.Apply(updates...)
			if i == 0 {
				wantErr = err != nil
			} else if (err != nil) != wantErr {
				t.Fatalf("step %d: %s error %v, session's error? %v", step, names[i], err, wantErr)
			}
		}
		want := sessions[0].Head()
		for i, s := range sessions[1:] {
			got := s.Head()
			if got.Epoch() != want.Epoch() || !got.VersionVector().Equal(want.VersionVector()) {
				t.Fatalf("step %d: %s at epoch %d %v, session at %d %v", step, names[i+1],
					got.Epoch(), got.VersionVector(), want.Epoch(), want.VersionVector())
			}
			gm, wm := got.Batch().Materialized, want.Batch().Materialized
			for v := range wm {
				if (gm[v] == nil) != (wm[v] == nil) || gm[v] != nil && string(gm[v].AppendBinary(nil)) != string(wm[v].AppendBinary(nil)) {
					t.Fatalf("step %d: %s view %d differs from the session's", step, names[i+1], v)
				}
			}
			for q := 0; q < want.NumQueries(); q++ {
				if string(got.Result(q).AppendBinary(nil)) != string(want.Result(q).AppendBinary(nil)) {
					t.Fatalf("step %d: %s query %d differs from the session's", step, names[i+1], q)
				}
			}
		}
	}
}

// TestOneShardHeadAllocatesNothing pins that reading a one-shard session's
// snapshot is one atomic load: no routing, copying or merging, so no
// allocation.
func TestOneShardHeadAllocatesNothing(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	s, err := NewSession(db, []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sn *Snapshot
	if allocs := testing.AllocsPerRun(100, func() { sn = s.Head() }); allocs != 0 || sn == nil {
		t.Fatalf("Head allocated %v times per call (snapshot %v)", allocs, sn)
	}
	if allocs := testing.AllocsPerRun(100, func() { sn = s.Head().Shard(0) }); allocs != 0 || sn != s.Head() {
		t.Fatalf("Head().Shard(0) allocated %v times per call", allocs)
	}
}
