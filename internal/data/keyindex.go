package data

import (
	"fmt"
	"slices"
)

// Join-key indexing for semi-join-restricted incremental maintenance
// (internal/ivm, moo.Engine.Apply): when a delta at one join-tree node
// propagates to a view at an unchanged node, only the base rows whose
// join-key values appear among the delta's keys can contribute to the
// view's delta. A KeyIndex answers "which rows hold this key tuple?" by
// binary search, turning the maintenance scan at an unchanged node from
// O(|R|) into O(|delta keys| log |R| + |matching rows|). The same structure
// locates the victims of a delete (Relation.DeleteRows).

// KeyIndex maps key tuples over a fixed attribute list to the ascending row
// ids of its relation holding them. It is one postings array: every row id,
// ordered by (key, id), searched by comparing integer key columns — no
// per-key allocation, no string hashing. An index whose attribute list is a
// prefix of the relation's own sort order needs no postings at all: the rows
// themselves are in (key, id) order.
//
// An index belongs to its relation and is kept current by the relation's
// mutations (ApplyDelta, Append, DeleteRows), which patch the postings in
// place — positions shift monotonically, so one remap pass plus O(|delta|)
// searched edits bring it forward (see patch.go). Lookups read the
// relation's rows, so like row reads they must not race with the relation's
// single writer, and slices returned by Rows are invalidated by the next
// mutation.
type KeyIndex struct {
	rel   *Relation
	attrs []AttrID
	cols  []int // cols[j] is the position of attrs[j] in rel.Cols
	// perm holds every row id ordered by (key, id). A positional index
	// (attrs a prefix of rel's sort order, where slot i is row i) keeps none.
	perm       []int32
	positional bool
}

// Attrs returns the attribute list the index keys are packed over, in
// packing order.
func (ix *KeyIndex) Attrs() []AttrID { return ix.attrs }

// row returns the row id at postings slot i.
func (ix *KeyIndex) row(i int) int32 {
	if ix.positional {
		return int32(i)
	}
	return ix.perm[i]
}

// cmpSlot compares the key of the row at slot i with key.
func (ix *KeyIndex) cmpSlot(i int, key []int64) int {
	r := ix.row(i)
	for j, c := range ix.cols {
		if v := ix.rel.Cols[c].Ints[r]; v != key[j] {
			return cmpLess(v < key[j])
		}
	}
	return 0
}

// span returns the slot range [lo, hi) whose rows hold key.
func (ix *KeyIndex) span(key []int64) (lo, hi int) {
	n := ix.rel.n
	lo, hi = 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.cmpSlot(mid, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == n || ix.cmpSlot(lo, key) != 0 {
		return lo, lo
	}
	// Key runs are short next to the relation: gallop to the end of the run
	// (the shape of RangeEnd) instead of a second full-width binary search.
	step, i := 1, lo+1
	for i < n && ix.cmpSlot(i, key) == 0 {
		i += step
		step <<= 1
	}
	l, h := i-step, min(i, n)
	for l < h {
		mid := int(uint(l+h) >> 1)
		if ix.cmpSlot(mid, key) == 0 {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return lo, l
}

// lookup returns the slot range [lo, hi) whose rows hold the packed key
// tuple (see AppendKey); a tuple of another arity matches nothing.
func (ix *KeyIndex) lookup(packed string) (lo, hi int) {
	if len(packed) != 8*len(ix.attrs) {
		return 0, 0
	}
	var kb [8]int64
	key := kb[:0]
	if len(ix.attrs) > len(kb) {
		key = make([]int64, 0, len(ix.attrs))
	}
	key = key[:len(ix.attrs)]
	UnpackKey(packed, key)
	return ix.span(key)
}

// Rows returns the ascending row ids holding the packed key tuple, or nil.
// The slice may be shared with the index: it must not be mutated, and it is
// invalidated by the relation's next mutation.
func (ix *KeyIndex) Rows(packed string) []int32 {
	lo, hi := ix.lookup(packed)
	if lo == hi {
		return nil
	}
	if !ix.positional {
		return ix.perm[lo:hi]
	}
	rows := make([]int32, hi-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return rows
}

// AppendRows appends the ascending row ids holding the packed key tuple to
// dst — Rows without the shared slice, for callers that gather the ids of
// several probes into one buffer.
func (ix *KeyIndex) AppendRows(dst []int32, packed string) []int32 {
	lo, hi := ix.lookup(packed)
	if !ix.positional {
		return append(dst, ix.perm[lo:hi]...)
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// Count returns the number of rows holding the packed key tuple.
func (ix *KeyIndex) Count(packed string) int {
	lo, hi := ix.lookup(packed)
	return hi - lo
}

// NumKeys returns the number of distinct key tuples, counted by one pass
// over the postings.
func (ix *KeyIndex) NumKeys() int {
	keys := 0
	for i := 0; i < ix.rel.n; i++ {
		if i == 0 || !ix.sameKey(ix.row(i-1), ix.row(i)) {
			keys++
		}
	}
	return keys
}

func (ix *KeyIndex) sameKey(x, y int32) bool {
	for _, c := range ix.cols {
		ints := ix.rel.Cols[c].Ints
		if ints[x] != ints[y] {
			return false
		}
	}
	return true
}

// keyCols resolves the index's key columns within a block laid out in the
// relation's schema order (the relation's own columns, or a delta block).
func (ix *KeyIndex) keyCols(block []Column) [][]int64 {
	out := make([][]int64, len(ix.cols))
	for j, c := range ix.cols {
		out[j] = block[c].Ints
	}
	return out
}

// KeyIndex returns the relation's join-key index over attrs (in the given
// order), building it on first use; from then on the relation's mutations
// keep it current, so the same index is returned for the relation's
// lifetime (until Restore or SortBy re-lay the rows). All attrs must be
// discrete columns of the relation. Safe for concurrent use with other
// readers; like every row read it must not race with the single writer.
func (r *Relation) KeyIndex(attrs []AttrID) (*KeyIndex, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("data: relation %q: key index over no attributes", r.Name)
	}
	return r.index(attrs)
}

// index is KeyIndex that also accepts the empty attribute list (every row
// holds the empty key) — the delete locator of a relation with no discrete
// column.
func (r *Relation) index(attrs []AttrID) (*KeyIndex, error) {
	r.keyIdxMu.Lock()
	defer r.keyIdxMu.Unlock()
	for _, ix := range r.keyIdx {
		if slices.Equal(ix.attrs, attrs) {
			return ix, nil
		}
	}
	ix := &KeyIndex{rel: r, attrs: append([]AttrID(nil), attrs...), cols: make([]int, len(attrs))}
	for j, a := range attrs {
		c := r.colIndex(a)
		if c < 0 {
			return nil, fmt.Errorf("data: relation %q: key index over missing attribute %d", r.Name, a)
		}
		if !r.Cols[c].IsInt() {
			return nil, fmt.Errorf("data: relation %q: key index over numeric attribute %d", r.Name, a)
		}
		ix.cols[j] = c
	}
	if r.SortedBy(attrs) {
		ix.positional = true
	} else {
		// The base case of the patch path: no previous postings, so sort
		// every row id.
		ix.perm = identityIDs(r.n)
		SortIDs(ix.perm, ix.keyCols(r.Cols))
	}
	r.keyIdx = append(r.keyIdx, ix)
	return ix, nil
}

// dropIndexes forgets every key index: the rows were re-laid, so no
// postings can be brought forward.
func (r *Relation) dropIndexes() {
	r.keyIdxMu.Lock()
	r.keyIdx = nil
	r.keyIdxMu.Unlock()
}

// GatherRows returns a new relation holding exactly the given rows of r (in
// the order of idx), sharing no row storage with the receiver. Used by the
// maintenance layer to materialize the semi-join-restricted row subset of an
// unchanged relation.
func (r *Relation) GatherRows(idx []int32) *Relation {
	out := &Relation{Name: r.Name, Attrs: append([]AttrID(nil), r.Attrs...), n: len(idx)}
	out.Cols = make([]Column, len(r.Cols))
	for i, c := range r.Cols {
		out.Cols[i] = c.gather(idx)
	}
	return out
}
