package data

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func testDB(t *testing.T) (*Database, *Relation) {
	t.Helper()
	db := NewDatabase()
	a := db.Attr("a", Key)
	b := db.Attr("b", Key)
	x := db.Attr("x", Numeric)
	rel := NewRelation("R",
		[]AttrID{a, b, x},
		[]Column{
			NewIntColumn([]int64{2, 1, 2, 1, 2}),
			NewIntColumn([]int64{7, 5, 6, 5, 6}),
			NewFloatColumn([]float64{1.5, 2.5, 3.5, 4.5, 5.5}),
		})
	if err := db.AddRelation(rel); err != nil {
		t.Fatalf("AddRelation: %v", err)
	}
	return db, rel
}

func TestAttrRegistry(t *testing.T) {
	db := NewDatabase()
	a := db.Attr("store", Key)
	a2 := db.Attr("store", Key)
	if a != a2 {
		t.Fatalf("re-registration returned different id: %d vs %d", a, a2)
	}
	if db.Attribute(a).Name != "store" {
		t.Fatalf("bad name %q", db.Attribute(a).Name)
	}
	if got, ok := db.AttrByName("store"); !ok || got != a {
		t.Fatalf("AttrByName = %d, %v", got, ok)
	}
	if _, ok := db.AttrByName("missing"); ok {
		t.Fatal("AttrByName found missing attribute")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring with different kind should panic")
		}
	}()
	db.Attr("store", Numeric)
}

func TestAttrKindString(t *testing.T) {
	cases := map[Kind]string{Key: "key", Categorical: "categorical", Numeric: "numeric", Kind(9): "kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !Key.Discrete() || !Categorical.Discrete() || Numeric.Discrete() {
		t.Error("Discrete misclassified a kind")
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	if c := d.Code("red"); c != 0 {
		t.Fatalf("first code = %d", c)
	}
	if c := d.Code("green"); c != 1 {
		t.Fatalf("second code = %d", c)
	}
	if c := d.Code("red"); c != 0 {
		t.Fatalf("repeat code = %d", c)
	}
	if v := d.Value(1); v != "green" {
		t.Fatalf("Value(1) = %q", v)
	}
	if v := d.Value(5); v != "" {
		t.Fatalf("Value(5) = %q, want empty", v)
	}
	if _, ok := d.Lookup("blue"); ok {
		t.Fatal("Lookup found absent value")
	}
	if c, ok := d.Lookup("green"); !ok || c != 1 {
		t.Fatalf("Lookup(green) = %d, %v", c, ok)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestColumnAccessors(t *testing.T) {
	ic := NewIntColumn([]int64{3, 4})
	fc := NewFloatColumn([]float64{1.5, 2.5})
	if !ic.IsInt() || fc.IsInt() {
		t.Fatal("IsInt misreported")
	}
	if ic.Len() != 2 || fc.Len() != 2 {
		t.Fatal("Len wrong")
	}
	if ic.Float(1) != 4.0 || fc.Float(0) != 1.5 {
		t.Fatal("Float accessor wrong")
	}
	if ic.Int(0) != 3 {
		t.Fatal("Int accessor wrong")
	}
}

func TestColumnValidation(t *testing.T) {
	db := NewDatabase()
	a := db.Attr("a", Key)
	x := db.Attr("x", Numeric)

	cases := []struct {
		name string
		rel  *Relation
	}{
		{"length mismatch", NewRelation("R", []AttrID{a, x}, []Column{
			NewIntColumn([]int64{1, 2}), NewFloatColumn([]float64{1}),
		})},
		{"kind mismatch", NewRelation("R", []AttrID{a}, []Column{
			NewFloatColumn([]float64{1, 2}),
		})},
		{"empty column struct", NewRelation("R", []AttrID{a}, []Column{{}})},
		{"both storages", NewRelation("R", []AttrID{a}, []Column{
			{Ints: []int64{1}, Floats: []float64{1}},
		})},
		{"duplicate attr", NewRelation("R", []AttrID{a, a}, []Column{
			NewIntColumn([]int64{1}), NewIntColumn([]int64{1}),
		})},
		{"unknown attr", NewRelation("R", []AttrID{99}, []Column{
			NewIntColumn([]int64{1}),
		})},
		{"attrs/cols mismatch", NewRelation("R", []AttrID{a}, nil)},
	}
	for _, tc := range cases {
		// Column length for "length mismatch" case: NewRelation takes n
		// from the first column, so the second column mismatches.
		if err := db.AddRelation(tc.rel); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestDuplicateRelation(t *testing.T) {
	db, _ := testDB(t)
	rel2 := NewRelation("R", nil, nil)
	if err := db.AddRelation(rel2); err == nil {
		t.Fatal("duplicate relation name accepted")
	}
	if db.Relation("R") == nil {
		t.Fatal("lookup of registered relation failed")
	}
	if db.Relation("missing") != nil {
		t.Fatal("lookup of missing relation succeeded")
	}
}

func TestSortBy(t *testing.T) {
	_, rel := testDB(t)
	if err := rel.SortBy([]AttrID{0, 1}); err != nil {
		t.Fatalf("SortBy: %v", err)
	}
	a := rel.Cols[0].Ints
	b := rel.Cols[1].Ints
	for i := 1; i < rel.Len(); i++ {
		if a[i-1] > a[i] || (a[i-1] == a[i] && b[i-1] > b[i]) {
			t.Fatalf("not sorted at %d: (%d,%d) > (%d,%d)", i, a[i-1], b[i-1], a[i], b[i])
		}
	}
	// Numeric column must have moved with its row.
	x := rel.Cols[2].Floats
	want := map[[2]int64]float64{
		{1, 5}: 0, {2, 6}: 0, {2, 7}: 1.5,
	}
	_ = want
	// Row (2,7) carried x=1.5.
	last := rel.Len() - 1
	if a[last] != 2 || b[last] != 7 || x[last] != 1.5 {
		t.Fatalf("row payload not carried: got (%d,%d,%v)", a[last], b[last], x[last])
	}
	if !rel.SortedBy([]AttrID{0}) || !rel.SortedBy([]AttrID{0, 1}) {
		t.Fatal("SortedBy prefix check failed")
	}
	if rel.SortedBy([]AttrID{1}) {
		t.Fatal("SortedBy accepted wrong order")
	}
	// Sorting again by the same order is a no-op (no error).
	if err := rel.SortBy([]AttrID{0}); err != nil {
		t.Fatalf("prefix re-sort: %v", err)
	}
}

func TestSortByErrors(t *testing.T) {
	_, rel := testDB(t)
	if err := rel.SortBy([]AttrID{2}); err == nil {
		t.Fatal("sorting by numeric attribute should fail")
	}
	if err := rel.SortBy([]AttrID{42}); err == nil {
		t.Fatal("sorting by absent attribute should fail")
	}
}

func TestSortedCopy(t *testing.T) {
	_, rel := testDB(t)
	orig := append([]int64(nil), rel.Cols[0].Ints...)
	cp, err := rel.SortedCopy([]AttrID{1, 0})
	if err != nil {
		t.Fatalf("SortedCopy: %v", err)
	}
	if !cp.SortedBy([]AttrID{1, 0}) {
		t.Fatal("copy not sorted")
	}
	for i, v := range rel.Cols[0].Ints {
		if v != orig[i] {
			t.Fatal("SortedCopy mutated the original")
		}
	}
}

func TestDistinctCount(t *testing.T) {
	_, rel := testDB(t)
	if n := rel.DistinctCount(0); n != 2 {
		t.Fatalf("distinct(a) = %d, want 2", n)
	}
	if n := rel.DistinctCount(1); n != 3 {
		t.Fatalf("distinct(b) = %d, want 3", n)
	}
	// Cached path.
	if n := rel.DistinctCount(0); n != 2 {
		t.Fatalf("cached distinct(a) = %d", n)
	}
	if n := rel.DistinctCount(2); n != 0 {
		t.Fatalf("distinct(numeric) = %d, want 0", n)
	}
}

func TestRowFloats(t *testing.T) {
	_, rel := testDB(t)
	row := make([]float64, 3)
	rel.RowFloats(0, row)
	if row[0] != 2 || row[1] != 7 || row[2] != 1.5 {
		t.Fatalf("RowFloats = %v", row)
	}
}

func TestForEachRange(t *testing.T) {
	vals := []int64{1, 1, 1, 3, 3, 7}
	var got [][3]int64
	ForEachRange(vals, 0, len(vals), func(v int64, l, h int) {
		got = append(got, [3]int64{v, int64(l), int64(h)})
	})
	want := [][3]int64{{1, 0, 3}, {3, 3, 5}, {7, 5, 6}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range %d: got %v want %v", i, got[i], want[i])
		}
	}
	if n := CountRanges(vals, 0, len(vals)); n != 3 {
		t.Fatalf("CountRanges = %d", n)
	}
}

// Property: ForEachRange partitions [0, n) exactly, with constant values
// within each range and different adjacent values across ranges.
func TestRangesPartitionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 5)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if len(vals) == 0 {
			return true
		}
		prev := 0
		ok := true
		var lastV int64 = -1
		ForEachRange(vals, 0, len(vals), func(v int64, l, h int) {
			if l != prev || h <= l {
				ok = false
			}
			if v == lastV {
				ok = false // adjacent ranges must differ
			}
			for i := l; i < h; i++ {
				if vals[i] != v {
					ok = false
				}
			}
			prev = h
			lastV = v
		})
		return ok && prev == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: key packing round-trips.
func TestPackKeyRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		key := PackKey(vals...)
		if KeyLen(key) != len(vals) {
			return false
		}
		out := make([]int64, len(vals))
		UnpackKey(key, out)
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyDistinct(t *testing.T) {
	// Different tuples must pack to different keys.
	seen := map[string][2]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := rng.Int63n(50)-25, rng.Int63n(50)-25
		k := PackKey(a, b)
		if prev, ok := seen[k]; ok && (prev[0] != a || prev[1] != b) {
			t.Fatalf("collision: %v vs (%d,%d)", prev, a, b)
		}
		seen[k] = [2]int64{a, b}
	}
}

func TestAppendKeyReuse(t *testing.T) {
	buf := make([]byte, 0, 16)
	buf = AppendKey(buf[:0], 1, 2)
	k1 := string(buf)
	buf = AppendKey(buf[:0], 3, 4)
	k2 := string(buf)
	if k1 == k2 {
		t.Fatal("reused buffer produced equal keys for different tuples")
	}
	if k1 != PackKey(1, 2) || k2 != PackKey(3, 4) {
		t.Fatal("AppendKey disagrees with PackKey")
	}
}

// Property: sorting then scanning ranges over the first key visits every row
// exactly once, and galloping RangeEnd agrees with a linear scan.
func TestRangeEndMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(4))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for lo := 0; lo < n; {
			end := RangeEnd(vals, lo, n)
			linEnd := lo + 1
			for linEnd < n && vals[linEnd] == vals[lo] {
				linEnd++
			}
			if end != linEnd {
				t.Fatalf("RangeEnd(%v, %d) = %d, want %d", vals, lo, end, linEnd)
			}
			lo = end
		}
	}
}

func TestDatabaseStats(t *testing.T) {
	db, rel := testDB(t)
	if db.TotalTuples() != rel.Len() {
		t.Fatalf("TotalTuples = %d", db.TotalTuples())
	}
	if db.SizeBytes() != int64(rel.Len()*3*8) {
		t.Fatalf("SizeBytes = %d", db.SizeBytes())
	}
	names := db.AttrNames([]AttrID{0, 2})
	if names[0] != "a" || names[1] != "x" {
		t.Fatalf("AttrNames = %v", names)
	}
	if db.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d", db.NumAttrs())
	}
}

func TestMustColPanics(t *testing.T) {
	_, rel := testDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on missing attribute should panic")
		}
	}()
	rel.MustCol(99)
}

// TestRelationRestore verifies checkpoint restoration: contents and version
// replaced wholesale, later deltas counted from the restored version.
func TestRelationRestore(t *testing.T) {
	db := NewDatabase()
	k := db.Attr("k", Key)
	rel := NewRelation("R", []AttrID{k}, []Column{NewIntColumn([]int64{0})})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	appendOne := func(v int64) {
		t.Helper()
		if err := rel.Append([]Column{NewIntColumn([]int64{v})}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		appendOne(i)
	}

	if err := rel.Restore([]Column{NewIntColumn([]int64{7, 8})}, 42, nil); err != nil {
		t.Fatal(err)
	}
	if got := rel.Len(); got != 2 {
		t.Fatalf("restored rows = %d, want 2", got)
	}
	if got := rel.Version(); got != 42 {
		t.Fatalf("restored version = %d, want 42", got)
	}

	// Post-restore appends continue from the restored version.
	appendOne(9)
	if got := rel.Version(); got != 43 {
		t.Fatalf("post-restore version = %d, want 43", got)
	}

	// Mismatched block shape is rejected and leaves state untouched.
	if err := rel.Restore([]Column{NewIntColumn(nil), NewIntColumn(nil)}, 50, nil); err == nil {
		t.Fatal("Restore accepted wrong column count")
	}
	if got := rel.Version(); got != 43 {
		t.Fatalf("failed Restore changed version to %d", got)
	}
}
