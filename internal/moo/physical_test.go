package moo

import (
	"reflect"
	"testing"

	"repro/internal/data"
)

// factDelta deletes the first n rows of F and inserts them back with the
// measure shifted.
func factDelta(db *data.Database, n int) data.Delta {
	rel := db.Relation("F")
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	dels := rel.GatherRows(idx).Cols
	ins := rel.GatherRows(idx).Cols
	for i := range ins[len(ins)-1].Floats {
		ins[len(ins)-1].Floats[i] += 0.5
	}
	return data.Delta{Relation: "F", Deletes: dels, Inserts: ins}
}

// TestSortedRelPatchedNotRebuilt: across deltas maintained by Apply the
// engine hands out the same sorted copy, brought forward in place and equal
// to a fresh sort; a delta applied to the base without Apply makes it sort
// again.
func TestSortedRelPatchedNotRebuilt(t *testing.T) {
	db, ids := starDB(t, 500, 3)
	opts := DefaultOptions()
	opts.TrackCounts = true
	e, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(starQueries(ids))
	if err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("F")
	order := []data.AttrID{ids["k2"], ids["k0"]}
	first, err := e.sortedRel(rel, order)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.KeyIndex([]data.AttrID{ids["k1"]}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		d := factDelta(db, 7)
		if err := db.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if res, _, err = e.Apply(res, d); err != nil {
			t.Fatal(err)
		}
		got, err := e.sortedRel(rel, order)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("step %d: a maintained delta rebuilt the sorted copy", step)
		}
		want, err := rel.SortedCopy(order)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("step %d: patched copy differs from a fresh sort", step)
		}
		gotIx, _ := got.KeyIndex([]data.AttrID{ids["k1"]})
		wantIx, _ := want.KeyIndex([]data.AttrID{ids["k1"]})
		for k := int64(0); k < 8; k++ {
			if !reflect.DeepEqual(gotIx.Rows(data.PackKey(k)), wantIx.Rows(data.PackKey(k))) {
				t.Fatalf("step %d: patched index differs from a fresh build at key %d", step, k)
			}
		}
	}

	// A delta the engine does not see: the base case fires.
	if err := db.ApplyDelta(factDelta(db, 3)); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.sortedRel(rel, order)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rel.SortedCopy(order)
	if rebuilt == first || !reflect.DeepEqual(rebuilt.Cols, want.Cols) {
		t.Fatal("a delta applied without Apply must rebuild the copy from the base")
	}
}

// TestPhysicalCacheHitsAllocateNothing guards the hot-path lookups every
// maintenance step makes: the engine's sorted copy, a relation's key index,
// and a shared delta block, all keyed by comparable structs.
func TestPhysicalCacheHitsAllocateNothing(t *testing.T) {
	db, ids := starDB(t, 300, 5)
	e, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("F")
	order := []data.AttrID{ids["k1"], ids["k2"]}
	key := []data.AttrID{ids["k0"]}
	sc := newScanCache(e)
	warm := func() {
		if _, err := e.sortedRel(rel, order); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.KeyIndex(key); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.sortedBlock(rel, order); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(50, warm); n != 0 {
		t.Fatalf("cache hits allocate %v times per round", n)
	}
}
