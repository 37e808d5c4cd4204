package data

import (
	"fmt"
	"math"
	"slices"
)

// Join-key indexing for semi-join-restricted incremental maintenance
// (internal/ivm, moo.Engine.Apply): when a delta at one join-tree node
// propagates to a view at an unchanged node, only the base rows whose
// join-key values appear among the delta's keys can contribute to the
// view's delta. A KeyIndex answers "which rows hold these key tuples?" by
// one galloping walk over an ascending key list (walk.seek), turning the
// maintenance scan at an unchanged node from O(|R|) into O(|delta keys|
// log(|R|/|delta keys|) + |matching rows|). The same walk locates the
// victims and landing points of a mutation (patch.go).

// KeyIndex maps key tuples over a fixed attribute list to the ascending row
// ids of its relation holding them. It is one postings array: every row id,
// ordered by (key, id), searched by comparing integer key columns — no
// per-key allocation, no string, no hashing. An index whose attribute list
// is a prefix of the relation's own sort order needs no postings at all:
// the rows themselves are in (key, id) order.
//
// An index belongs to its relation and is kept current by the relation's
// mutations (ApplyDelta, Append, DeleteRows), which patch the postings in
// place — positions shift monotonically, so one remap pass plus one walk
// placing the inserts bring it forward (see patch.go). Lookups read the
// relation's rows, so like row reads they must not race with the relation's
// single writer.
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

// walk is one walk over an index: a search of ascending targets, each from
// the previous answer. It reads the postings and the key columns of the
// relation's rows once, so a comparison costs one load per key column.
type walk struct {
	cols [][]int64 // cols[j] is the relation's column of attrs[j]
	perm []int32   // the postings; nil for a positional index
	n    int
}

// walk starts a walk over ix, taking buf's storage for the column list.
func (ix *KeyIndex) walk(buf [][]int64) walk {
	w := walk{cols: buf[:0], n: ix.rel.n}
	for _, c := range ix.cols {
		w.cols = append(w.cols, ix.rel.Cols[c].Ints)
	}
	if !ix.positional {
		w.perm = ix.perm
	}
	return w
}

// below reports whether the entry at slot i — (its row's key, its row) —
// is below (tuple t of keys, row): keys holds one column per index
// attribute, in index order.
func (w *walk) below(i int, keys [][]int64, t, row int32) bool {
	r := int32(i)
	if w.perm != nil {
		r = w.perm[i]
	}
	for j, col := range w.cols {
		if v, x := col[r], keys[j][t]; v != x {
			return v < x
		}
	}
	return r < row
}

// seek returns the first slot at or after from whose entry is not below
// (tuple t of keys, row). It gallops forward 1, 2, 4, … slots and then
// binary-searches the last step, so a walk seeking ascending targets from
// each previous answer costs O(log gap) per target: O(m log(n/m)) for m
// targets over n slots, instead of m searches over the whole index. Row 0
// finds the first slot of the tuple's key, math.MaxInt32 the slot just past
// it.
func (w *walk) seek(from int, keys [][]int64, t, row int32) int {
	n := w.n
	if from >= n || !w.below(from, keys, t, row) {
		return from
	}
	// Slot lo is below the target; find a slot hi that is not (or n).
	lo, step := from, 1
	hi := lo + step
	for hi < n && w.below(hi, keys, t, row) {
		lo, step = hi, step<<1
		hi = lo + step
	}
	hi = min(hi, n)
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if w.below(mid, keys, t, row) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// span returns the slot range [lo, hi) whose rows hold tuple t of keys,
// searching from slot from on: a walk over ascending tuples passes each
// answer's hi as the next from.
func (w *walk) span(from int, keys [][]int64, t int32) (lo, hi int) {
	lo = w.seek(from, keys, t, 0)
	return lo, w.seek(lo, keys, t, math.MaxInt32)
}

// AppendRows appends to dst the row ids holding any key tuple of keys —
// tuple t is (keys[0][t], keys[1][t], …) over the index's attributes, the
// tuples strictly ascending — each tuple's ids ascending, tuples in order.
// It is one galloping walk over the postings; a tuple list of another arity
// matches nothing.
func (ix *KeyIndex) AppendRows(dst []int32, keys [][]int64) []int32 {
	if len(keys) != len(ix.cols) || len(keys) == 0 {
		return dst
	}
	var buf [4][]int64
	w, hi := ix.walk(buf[:]), 0
	for t := range len(keys[0]) {
		var lo int
		lo, hi = w.span(hi, keys, int32(t))
		if !ix.positional {
			dst = append(dst, ix.perm[lo:hi]...)
			continue
		}
		for i := lo; i < hi; i++ {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Count returns the number of rows AppendRows would append.
func (ix *KeyIndex) Count(keys [][]int64) int {
	if len(keys) != len(ix.cols) || len(keys) == 0 {
		return 0
	}
	var buf [4][]int64
	w, total, hi := ix.walk(buf[:]), 0, 0
	for t := range len(keys[0]) {
		var lo int
		lo, hi = w.span(hi, keys, int32(t))
		total += hi - lo
	}
	return total
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
