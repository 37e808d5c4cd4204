package data

import (
	"reflect"
	"testing"
)

func keyIndexFixture(t *testing.T) *Relation {
	t.Helper()
	db := NewDatabase()
	a := db.Attr("a", Key)
	b := db.Attr("b", Key)
	x := db.Attr("x", Numeric)
	rel := NewRelation("R", []AttrID{a, b, x}, []Column{
		NewIntColumn([]int64{1, 2, 1, 3, 2, 1}),
		NewIntColumn([]int64{10, 20, 10, 30, 21, 11}),
		NewFloatColumn([]float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}),
	})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestKeyIndexLookup(t *testing.T) {
	rel := keyIndexFixture(t)
	a, b := rel.Attrs[0], rel.Attrs[1]

	ix, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Rows(PackKey(1)); !reflect.DeepEqual(got, []int32{0, 2, 5}) {
		t.Fatalf("rows for a=1: got %v", got)
	}
	if got := ix.Rows(PackKey(3)); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("rows for a=3: got %v", got)
	}
	if got := ix.Rows(PackKey(99)); got != nil {
		t.Fatalf("rows for absent key: got %v", got)
	}
	if ix.NumKeys() != 3 {
		t.Fatalf("NumKeys = %d, want 3", ix.NumKeys())
	}

	// Composite key follows the attr order given.
	ix2, err := rel.KeyIndex([]AttrID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.Rows(PackKey(1, 10)); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("rows for (1,10): got %v", got)
	}
	if got := ix2.Rows(PackKey(10, 1)); got != nil {
		t.Fatalf("reversed key order must miss: got %v", got)
	}
}

func TestKeyIndexCacheAndPatch(t *testing.T) {
	rel := keyIndexFixture(t)
	a := rel.Attrs[0]

	ix1, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Fatal("unchanged relation must reuse the cached index")
	}

	// Mutate: the index is patched in place — the same index, now seeing the
	// new row — instead of being rebuilt on the next fetch.
	if err := rel.Append([]Column{
		NewIntColumn([]int64{7}), NewIntColumn([]int64{70}), NewFloatColumn([]float64{7.5}),
	}); err != nil {
		t.Fatal(err)
	}
	if got := ix1.Rows(PackKey(7)); !reflect.DeepEqual(got, []int32{6}) {
		t.Fatalf("rows for appended key through the patched index: got %v", got)
	}
	ix3, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix3 != ix1 {
		t.Fatal("a mutation must bring the index forward, not replace it")
	}
	if ix3.Count(PackKey(1)) != 3 || ix3.NumKeys() != 4 {
		t.Fatalf("patched index: Count(1) = %d, NumKeys = %d", ix3.Count(PackKey(1)), ix3.NumKeys())
	}
}

// TestKeyIndexLookupAllocatesNothing: the probe path of every maintenance
// step — fetch the index, count a key, append its rows — is allocation-free,
// for postings-backed and positional indexes alike.
func TestKeyIndexLookupAllocatesNothing(t *testing.T) {
	rel := keyIndexFixture(t)
	sorted, err := rel.SortedCopy([]AttrID{rel.Attrs[0], rel.Attrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relation{rel, sorted} {
		attrs := []AttrID{r.Attrs[0]}
		key := PackKey(1)
		dst := make([]int32, 0, 8)
		n := testing.AllocsPerRun(100, func() {
			ix, err := r.KeyIndex(attrs)
			if err != nil || ix.Count(key) != 3 || len(ix.AppendRows(dst[:0], key)) != 3 {
				t.Fatal("lookup failed")
			}
		})
		if n != 0 {
			t.Fatalf("lookup allocates %v times (sorted=%v)", n, r == sorted)
		}
	}
}

func TestKeyIndexErrors(t *testing.T) {
	rel := keyIndexFixture(t)
	x := rel.Attrs[2] // numeric
	if _, err := rel.KeyIndex(nil); err == nil {
		t.Fatal("empty attr list must error")
	}
	if _, err := rel.KeyIndex([]AttrID{x}); err == nil {
		t.Fatal("numeric attribute must error")
	}
	if _, err := rel.KeyIndex([]AttrID{AttrID(99)}); err == nil {
		t.Fatal("missing attribute must error")
	}
}

func TestGatherRows(t *testing.T) {
	rel := keyIndexFixture(t)
	sub := rel.GatherRows([]int32{1, 3, 4})
	if sub.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sub.Len())
	}
	if got := sub.Cols[0].Ints; !reflect.DeepEqual(got, []int64{2, 3, 2}) {
		t.Fatalf("gathered a column: got %v", got)
	}
	if got := sub.Cols[2].Floats; !reflect.DeepEqual(got, []float64{1.5, 3.5, 4.5}) {
		t.Fatalf("gathered x column: got %v", got)
	}
	// Storage must be independent of the source.
	sub.Cols[0].Ints[0] = 42
	if rel.Cols[0].Ints[1] == 42 {
		t.Fatal("GatherRows must not share storage")
	}
	if empty := rel.GatherRows(nil); empty.Len() != 0 {
		t.Fatalf("empty gather: Len = %d", empty.Len())
	}
}
