package data

import (
	"math"
	"reflect"
	"slices"
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

// keyCols returns the one-tuple key block (key[0]), (key[1]), … that
// KeyIndex.Count and AppendRows take.
func keyCols(key ...int64) [][]int64 {
	cols := make([][]int64, len(key))
	for j, v := range key {
		cols[j] = []int64{v}
	}
	return cols
}

// rowsOf returns the ascending row ids holding key, or nil.
func rowsOf(ix *KeyIndex, key ...int64) []int32 {
	return ix.AppendRows(nil, keyCols(key...))
}

func TestKeyIndexLookup(t *testing.T) {
	rel := keyIndexFixture(t)
	a, b := rel.Attrs[0], rel.Attrs[1]

	ix, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(ix, 1); !reflect.DeepEqual(got, []int32{0, 2, 5}) {
		t.Fatalf("rows for a=1: got %v", got)
	}
	if got := rowsOf(ix, 3); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("rows for a=3: got %v", got)
	}
	if got := rowsOf(ix, 99); got != nil {
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
	if got := rowsOf(ix2, 1, 10); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("rows for (1,10): got %v", got)
	}
	if got := rowsOf(ix2, 10, 1); got != nil {
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
	if got := rowsOf(ix1, 7); !reflect.DeepEqual(got, []int32{6}) {
		t.Fatalf("rows for appended key through the patched index: got %v", got)
	}
	ix3, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix3 != ix1 {
		t.Fatal("a mutation must bring the index forward, not replace it")
	}
	if ix3.Count(keyCols(1)) != 3 || ix3.NumKeys() != 4 {
		t.Fatalf("patched index: Count(1) = %d, NumKeys = %d", ix3.Count(keyCols(1)), ix3.NumKeys())
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
		key := keyCols(1)
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

// FuzzKeyIndexSeek checks the galloping walk against a linear scan of the
// postings. The shape byte picks the key arity (bits 0-1), the value range
// (bits 2-3: few values, so keys repeat), whether the relation is sorted
// by the key first, making the index positional (bit 4), and the attribute
// order (bit 5). Every three row bytes make a row; every arity probe bytes
// make a key tuple, drawn one below to one above the stored values, and
// the tuples are sorted and deduplicated into the ascending list the walk
// takes. AppendRows and Count must match the rows of each key in slot
// order; seek from any slot must find the first entry at or past it that
// is not below (tuple, row).
func FuzzKeyIndexSeek(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1, 0, 0, 2, 2, 2, 0, 1, 1}, []byte{0, 1, 2, 3, 4})
	f.Add(uint8(0x11), []byte{3, 3, 3, 1, 1, 1, 3, 3, 3, 0, 0, 0}, []byte{5, 5, 0, 0, 9, 1})
	f.Add(uint8(0x2e), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5}, []byte{0, 0, 0, 7, 7, 7, 2, 3, 4})
	f.Add(uint8(0x03), []byte{}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, shape uint8, rowBytes, probeBytes []byte) {
		arity := 1 + int(shape%3)
		mod := int64(2 + (shape>>2&3)*2)
		n := min(len(rowBytes)/3, 200)
		cols := make([][]int64, 3)
		for c := range cols {
			cols[c] = make([]int64, n)
			for r := range cols[c] {
				cols[c][r] = int64(rowBytes[3*r+c]) % mod
			}
		}
		db := NewDatabase()
		attrs := []AttrID{db.Attr("a", Key), db.Attr("b", Key), db.Attr("c", Key)}
		rel := NewRelation("R", attrs, []Column{NewIntColumn(cols[0]), NewIntColumn(cols[1]), NewIntColumn(cols[2])})
		keyAttrs := attrs[:arity]
		if shape&0x20 != 0 {
			keyAttrs = []AttrID{attrs[2], attrs[1], attrs[0]}[:arity]
		}
		if shape&0x10 != 0 {
			if err := rel.SortBy(keyAttrs); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := rel.KeyIndex(keyAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if ix.positional != (shape&0x10 != 0) {
			t.Fatalf("positional = %v, want %v", ix.positional, shape&0x10 != 0)
		}
		keyOf := func(slot int) []int64 {
			r := ix.row(slot)
			k := make([]int64, arity)
			for j, a := range keyAttrs {
				k[j] = rel.MustCol(a).Ints[r]
			}
			return k
		}

		// The probe tuples, sorted and deduplicated, as key columns.
		var tuples [][]int64
		for i := 0; i+arity <= min(len(probeBytes), 60); i += arity {
			tup := make([]int64, arity)
			for j := range tup {
				tup[j] = int64(probeBytes[i+j])%(mod+2) - 1
			}
			tuples = append(tuples, tup)
		}
		slices.SortFunc(tuples, slices.Compare)
		tuples = slices.CompactFunc(tuples, slices.Equal)
		keys := make([][]int64, arity)
		for _, tup := range tuples {
			for j, v := range tup {
				keys[j] = append(keys[j], v)
			}
		}

		var want []int32
		for _, tup := range tuples {
			for s := 0; s < n; s++ {
				if slices.Equal(keyOf(s), tup) {
					want = append(want, ix.row(s))
				}
			}
		}
		if got := ix.AppendRows(nil, keys); !slices.Equal(got, want) {
			t.Fatalf("walk over %v: rows %v, want %v", tuples, got, want)
		}
		if got := ix.Count(keys); got != len(want) {
			t.Fatalf("walk over %v: count %d, want %d", tuples, got, len(want))
		}
		for ti, tup := range tuples {
			for _, row := range []int32{0, int32(ti) % int32(n+1), int32(n), math.MaxInt32} {
				for from := 0; from <= n; from++ {
					wantSlot := from
					for wantSlot < n {
						c := slices.Compare(keyOf(wantSlot), tup)
						if c > 0 || (c == 0 && ix.row(wantSlot) >= row) {
							break
						}
						wantSlot++
					}
					w := ix.walk(nil)
					if got := w.seek(from, keys, int32(ti), row); got != wantSlot {
						t.Fatalf("seek(%d, %v, row %d) = %d, want %d", from, tup, row, got, wantSlot)
					}
				}
			}
		}
	})
}
