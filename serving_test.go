package lmfao

import (
	"strings"
	"testing"
)

// TestMaintainerUniformContract drives a Session and a ShardedSession
// through the Maintainer interface alone — the serving-tier usage pattern —
// and checks the served answers agree at every step.
func TestMaintainerUniformContract(t *testing.T) {
	build := func(t *testing.T) []Maintainer {
		db1, _, amount, region := sessionFixture(t)
		queries := []*Query{NewQuery("byregion", []AttrID{region}, Count(), Sum(amount))}
		sess, err := NewSession(db1, queries, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		db2, _, amount2, region2 := sessionFixture(t)
		if amount2 != amount || region2 != region {
			t.Fatal("fixture attribute vocabulary not stable")
		}
		sharded, err := NewShardedSession(db2, queries, DefaultOptions(),
			ShardOptions{Shards: 2, Relation: "sales"})
		if err != nil {
			t.Fatal(err)
		}
		return []Maintainer{sess, sharded}
	}
	ms := build(t)
	for _, m := range ms {
		if m.Snapshot() != nil {
			t.Fatalf("%T: snapshot published before first Run", m)
		}
		q, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if q == nil || q.NumQueries() != 1 {
			t.Fatalf("%T: Run returned %v", m, q)
		}
		if _, err := m.Apply(InsertRows("sales",
			IntColumn([]int64{2, 0}), FloatColumn([]float64{8, 1}))); err != nil {
			t.Fatal(err)
		}
		m.Wait()
	}
	a, b := ms[0].Snapshot(), ms[1].Snapshot()
	for _, key := range []int64{10, 20} {
		ra, oka := a.Lookup(0, key)
		rb, okb := b.Lookup(0, key)
		if oka != okb || len(ra) != len(rb) {
			t.Fatalf("key %d: session %v %v, sharded %v %v", key, ra, oka, rb, okb)
		}
		for c := range ra {
			if ra[c] != rb[c] {
				t.Fatalf("key %d col %d: session %g, sharded %g", key, c, ra[c], rb[c])
			}
		}
	}
	if got, want := len(a.Versions()), 1; got != want {
		t.Fatalf("session Versions length %d, want %d", got, want)
	}
	if got, want := len(b.Versions()), 2; got != want {
		t.Fatalf("sharded Versions length %d, want %d", got, want)
	}
	for _, m := range ms {
		m.Close()
		m.Close() // idempotent
		if _, err := m.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{1}))); err == nil {
			t.Fatalf("%T: Apply succeeded after Close", m)
		}
		if _, err := m.Run(); err == nil {
			t.Fatalf("%T: Run succeeded after Close", m)
		}
		if res := <-m.ApplyAsync(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{1}))); res.Err == nil {
			t.Fatalf("%T: ApplyAsync succeeded after Close", m)
		}
		// Published snapshots survive Close.
		if row, ok := m.Snapshot().Lookup(0, 10); !ok || row[0] != 5 {
			t.Fatalf("%T: snapshot after Close = %v %v, want [5 ...]", m, row, ok)
		}
	}
}

// TestSessionCloseDrainsAcceptedAsync pins the Close drain contract shared
// with ShardedSession: a round accepted by ApplyAsync before Close must
// commit, not abort with a closed-session error.
func TestSessionCloseDrainsAcceptedAsync(t *testing.T) {
	db, _, amount, _ := sessionFixture(t)
	sess, err := NewSession(db, []*Query{NewQuery("total", nil, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	ch := sess.ApplyAsync(InsertRows("sales", IntColumn([]int64{1}), FloatColumn([]float64{85})))
	sess.Close()
	res := <-ch
	if res.Err != nil {
		t.Fatalf("accepted async round aborted by Close: %v", res.Err)
	}
	if row, ok := sess.Snapshot().Lookup(0); !ok || row[0] != 100 {
		t.Fatalf("total after drained Close = %v %v, want [100]", row, ok)
	}
}

// TestSnapshotRequery pins the Requerier hook on session snapshots: an
// ad-hoc batch evaluated through a snapshot must match the maintained
// answer, and it reflects the session's current data after later rounds.
func TestSnapshotRequery(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	sess, err := NewSession(db, []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	sn := sess.Head()
	views, err := sn.Requery([]*Query{NewQuery("total", nil, Sum(amount))})
	if err != nil {
		t.Fatal(err)
	}
	if got := views[0].Val(0, 0); got != 15 {
		t.Fatalf("requeried total = %g, want 15", got)
	}
	if _, err := sess.Apply(InsertRows("sales", IntColumn([]int64{0}), FloatColumn([]float64{10}))); err != nil {
		t.Fatal(err)
	}
	// The hook serves the session's CURRENT base data, even through the old
	// snapshot (documented on Requery).
	views, err = sn.Requery([]*Query{NewQuery("total", nil, Sum(amount))})
	if err != nil {
		t.Fatal(err)
	}
	if got := views[0].Val(0, 0); got != 25 {
		t.Fatalf("requeried total after update = %g, want 25", got)
	}
	// A hand-built snapshot has no hook and says so.
	if _, err := new(Snapshot).Requery(nil); err == nil || !strings.Contains(err.Error(), "requery") {
		t.Fatalf("hookless Requery error = %v", err)
	}
}

// TestShardedSnapshotZeroShards pins the zero-value guards: a shard-less
// snapshot serves an empty batch instead of panicking on shards[0].
func TestShardedSnapshotZeroShards(t *testing.T) {
	sn := new(ShardedSnapshot)
	if got := sn.NumQueries(); got != 0 {
		t.Fatalf("NumQueries = %d, want 0", got)
	}
	if row, ok := sn.Lookup(0, 1); ok || row != nil {
		t.Fatalf("Lookup = %v %v, want miss", row, ok)
	}
	if v := sn.Result(0); v != nil {
		t.Fatalf("Result = %v, want nil", v)
	}
	if _, err := sn.MergedResult(0); err == nil {
		t.Fatal("MergedResult succeeded with no shard components")
	}
	if _, err := sn.Requery(nil); err == nil {
		t.Fatal("Requery succeeded with no shard components")
	}
	if got := len(sn.Versions()); got != 0 {
		t.Fatalf("Versions length = %d, want 0", got)
	}
	if got := len(sn.Epochs()); got != 0 {
		t.Fatalf("Epochs length = %d, want 0", got)
	}
	if sn.Epoch() != 0 || sn.Batch() != nil || sn.VersionVector() != nil {
		t.Fatalf("part accessors of a snapshot with no parts: epoch %d, batch %v, versions %v", sn.Epoch(), sn.Batch(), sn.VersionVector())
	}
}

// TestNewShardedSessionRejectsBadShardCount pins the constructor guard.
func TestNewShardedSessionRejectsBadShardCount(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount))}
	for _, n := range []int{0, -1} {
		if _, err := NewShardedSession(db, queries, DefaultOptions(), ShardOptions{Shards: n}); err == nil {
			t.Fatalf("NewShardedSession accepted Shards=%d", n)
		} else if !strings.Contains(err.Error(), "at least 1 shard") {
			t.Fatalf("Shards=%d error = %v, want a shard-count message", n, err)
		}
	}
}

// TestSubQueryable windows a combined two-application batch and checks
// index translation, bounds and the Requerier passthrough.
func TestSubQueryable(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	queries := []*Query{
		NewQuery("byregion", []AttrID{region}, Sum(amount)),
		NewQuery("total", nil, Sum(amount)),
	}
	sess, err := NewSession(db, queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	sub, err := SubQueryable(sess.Snapshot(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.NumQueries(); got != 1 {
		t.Fatalf("sub NumQueries = %d, want 1", got)
	}
	if row, ok := sub.Lookup(0); !ok || row[0] != 15 {
		t.Fatalf("sub Lookup = %v %v, want [15]", row, ok)
	}
	if v := sub.Result(0); v == nil || v.NumRows() != 1 {
		t.Fatalf("sub Result = %v, want the scalar view", v)
	}
	if v := sub.Result(1); v != nil {
		t.Fatalf("out-of-window Result = %v, want nil", v)
	}
	if _, ok := sub.Lookup(1); ok {
		t.Fatal("out-of-window Lookup hit")
	}
	if _, ok := sub.(Requerier); !ok {
		t.Fatal("sub over a session snapshot lost the Requerier hook")
	}
	if _, err := SubQueryable(sess.Snapshot(), 1, 3); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	if _, err := SubQueryable(nil, 0, 0); err == nil {
		t.Fatal("nil Queryable accepted")
	}
}

// TestRunQueryable pins the one-shot engine adapter: Queryable reads over
// the materialized batch, a single-writer Versions vector, and a live
// Requery hook.
func TestRunQueryable(t *testing.T) {
	db, _, amount, region := sessionFixture(t)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := RunQueryable(eng, []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount))})
	if err != nil {
		t.Fatal(err)
	}
	if got := sn.NumQueries(); got != 1 {
		t.Fatalf("NumQueries = %d, want 1", got)
	}
	if row, ok := sn.Lookup(0, 10); !ok || row[0] != 10 {
		t.Fatalf("Lookup = %v %v, want [10]", row, ok)
	}
	if got := len(sn.Versions()); got != 1 {
		t.Fatalf("Versions length = %d, want 1", got)
	}
	if sn.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", sn.Epoch())
	}
	views, err := sn.Requery([]*Query{NewQuery("total", nil, Count())})
	if err != nil {
		t.Fatal(err)
	}
	if got := views[0].Val(0, 0); got != 5 {
		t.Fatalf("requeried count = %g, want 5", got)
	}
}

// TestQueryableOutOfRangeIndex: every Queryable answers a query index
// outside its batch with a nil Result and a Lookup miss, never a panic —
// including the sharded monoid route, which reads the plan's per-query
// metadata.
func TestQueryableOutOfRangeIndex(t *testing.T) {
	batch := func(store, amount, region AttrID) []*Query {
		maxStore := NewQuery("maxstore", []AttrID{region}, Count())
		maxStore.MonoidAggs = []MonoidAgg{MaxOf(store)}
		return []*Query{NewQuery("byregion", []AttrID{region}, Sum(amount)), maxStore}
	}
	db, store, amount, region := sessionFixture(t)
	sess, err := NewSession(db, batch(store, amount, region), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	db2, store2, amount2, region2 := sessionFixture(t)
	sharded, err := NewShardedSession(db2, batch(store2, amount2, region2), DefaultOptions(), ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, err := sharded.Run(); err != nil {
		t.Fatal(err)
	}
	sub, err := SubQueryable(sess.Snapshot(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    Queryable
	}{
		{"snapshot", sess.Snapshot()},
		{"sharded", sharded.Snapshot()},
		{"sub", sub},
	} {
		for qi := 0; qi < 2; qi++ {
			if row, ok := tc.q.Lookup(qi, 10); !ok || len(row) == 0 {
				t.Fatalf("%s: Lookup(%d, 10) = %v %v, want a hit", tc.name, qi, row, ok)
			}
		}
		for _, qi := range []int{-1, 2, 1 << 20} {
			if v := tc.q.Result(qi); v != nil {
				t.Errorf("%s: Result(%d) = %v, want nil", tc.name, qi, v)
			}
			if row, ok := tc.q.Lookup(qi, 10); ok || row != nil {
				t.Errorf("%s: Lookup(%d) = %v %v, want a miss", tc.name, qi, row, ok)
			}
		}
	}
}
