package lmfao

import (
	"testing"
)

// Delete-path regressions for non-invertible aggregates: a MIN/MAX column
// cannot subtract a deleted tuple, so the session must re-fold every group
// whose support shrank. Each case pins one shape of that re-scan against
// hand-computed expectations.

// monoidFixture builds sales(store, item) ⋈ stores(store, region) with
// per-region item supports region 10 → {3, 5, 8} and region 20 → {2, 7},
// and a session maintaining MIN(item), MAX(item) per region.
func monoidFixture(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := NewDatabase()
	store := db.Attr("store", Key)
	item := db.Attr("item", Categorical)
	region := db.Attr("region", Categorical)
	if err := db.AddRelation(NewRelation("sales",
		[]AttrID{store, item},
		[]Column{IntColumn([]int64{0, 0, 1, 2, 2}), IntColumn([]int64{5, 3, 8, 7, 2})})); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(NewRelation("stores",
		[]AttrID{store, region},
		[]Column{IntColumn([]int64{0, 1, 2}), IntColumn([]int64{10, 10, 20})})); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("extrema", []AttrID{region}, Count())
	q.MonoidAggs = []MonoidAgg{MinOf(item), MaxOf(item)}
	sess, err := NewSession(db, []*Query{q}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Columns: [count, MIN(item), MAX(item)].
	requireExtrema(t, sess, "initial", 10, 3, 3, 8)
	requireExtrema(t, sess, "initial", 20, 2, 2, 7)
	return db, sess
}

// requireExtrema asserts one group's [count, min, max] row (each sales row
// joins exactly one store row, so counts equal surviving sales rows).
func requireExtrema(t *testing.T, sess *Session, label string, region, count, min, max int64) {
	t.Helper()
	got := lookupRow(t, sess.Result().Results[0], region)
	if got[0] != float64(count) || got[1] != float64(min) || got[2] != float64(max) {
		t.Fatalf("%s: region %d = %v, want [%d %d %d]", label, region, got, count, min, max)
	}
}

func applySales(t *testing.T, sess *Session, inserts, deletes [][2]int64) {
	t.Helper()
	u := Update{Relation: "sales"}
	if len(inserts) > 0 {
		st := make([]int64, len(inserts))
		it := make([]int64, len(inserts))
		for i, row := range inserts {
			st[i], it[i] = row[0], row[1]
		}
		u.Inserts = []Column{IntColumn(st), IntColumn(it)}
	}
	if len(deletes) > 0 {
		st := make([]int64, len(deletes))
		it := make([]int64, len(deletes))
		for i, row := range deletes {
			st[i], it[i] = row[0], row[1]
		}
		u.Deletes = []Column{IntColumn(st), IntColumn(it)}
	}
	if _, err := sess.Apply(u); err != nil {
		t.Fatal(err)
	}
}

// TestMonoidDeleteLosesExtremum deletes a group's current extremum on both
// ends: the re-fold must surface the next-best surviving value, not the
// stale one and not the global one.
func TestMonoidDeleteLosesExtremum(t *testing.T) {
	_, sess := monoidFixture(t)
	// Region 10 loses its maximum (item 8, the only store-1 sale).
	applySales(t, sess, nil, [][2]int64{{1, 8}})
	requireExtrema(t, sess, "after max delete", 10, 2, 3, 5)
	requireExtrema(t, sess, "after max delete", 20, 2, 2, 7)
	// Region 20 loses its minimum (item 2).
	applySales(t, sess, nil, [][2]int64{{2, 2}})
	requireExtrema(t, sess, "after min delete", 20, 1, 7, 7)
}

// TestMonoidDeleteEmptiesGroup deletes every tuple of one group: the group
// must drop from the output entirely rather than linger with identity
// (sentinel) extrema.
func TestMonoidDeleteEmptiesGroup(t *testing.T) {
	_, sess := monoidFixture(t)
	applySales(t, sess, nil, [][2]int64{{2, 7}, {2, 2}})
	if sess.Result().Results[0].Lookup(20) >= 0 {
		t.Fatal("region 20 should vanish after losing all its tuples")
	}
	requireExtrema(t, sess, "survivor", 10, 3, 3, 8)
}

// TestMonoidDeleteThenReinsert deletes an extremum in one batch and
// reinserts the identical tuple in the next: the re-fold must first drop to
// the runner-up and then restore the original value — catching any stale
// per-group cache keyed on value rather than support.
func TestMonoidDeleteThenReinsert(t *testing.T) {
	_, sess := monoidFixture(t)
	applySales(t, sess, nil, [][2]int64{{0, 3}})
	requireExtrema(t, sess, "after delete", 10, 2, 5, 8)
	applySales(t, sess, [][2]int64{{0, 3}}, nil)
	requireExtrema(t, sess, "after reinsert", 10, 3, 3, 8)
}

// TestMonoidDeleteUnderDeltaLogPressure runs a longer delete-and-re-fold
// stream, a mixed update included: re-scans must stay correct across it.
func TestMonoidDeleteUnderDeltaLogPressure(t *testing.T) {
	_, sess := monoidFixture(t)

	applySales(t, sess, nil, [][2]int64{{1, 8}})
	requireExtrema(t, sess, "capped delete 1", 10, 2, 3, 5)
	applySales(t, sess, [][2]int64{{1, 9}}, [][2]int64{{0, 3}})
	requireExtrema(t, sess, "capped delete 2", 10, 2, 5, 9)
	applySales(t, sess, nil, [][2]int64{{1, 9}})
	requireExtrema(t, sess, "capped delete 3", 10, 1, 5, 5)

	applySales(t, sess, nil, [][2]int64{{0, 5}})
	if sess.Result().Results[0].Lookup(10) >= 0 {
		t.Fatal("region 10 should vanish after losing its last tuple")
	}
	requireExtrema(t, sess, "capped delete 4", 20, 2, 2, 7)
}
