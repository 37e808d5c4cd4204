package data

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Physical design under updates. A relation's rows, a sorted copy of them and
// every key index are kept current by one operation, mutate — a copy takes
// each delta its base takes (Relation.ApplyDelta on both) — whose cost is
// proportional to the delta: one galloping walk per structure over the
// delta's tuples, sorted once, finds what the delta touches (walk.seek,
// O(|δ| log(|R|/|δ|))), then allocation-free linear passes (memmove between
// the touched positions) over the affected arrays. Nothing is re-sorted or
// re-hashed — the full sort survives only as the base case, building a
// structure that has no previous state to patch (SortedCopy, the first
// KeyIndex call).
//
// The invariant that makes a patched structure equal, element for element,
// to a freshly built one is the tie order: among rows equal on the sort (or
// index) key, rows stand in arrival order, and a delta's inserts follow
// every existing row — the order a stable sort of the arrival-order rows
// yields. Deletes keep it (surviving rows close the gaps in place), appends
// keep it trivially, and a merge lands the inserts behind every existing
// row of equal key. A relation sorted in place and then mutated therefore
// equals SortedCopy of an arrival-order twin that took the same deltas.
// Sorting a relation that is already sorted would break the invariant — a
// stable sort leaves ties in the old sort order, not in arrival order — so
// such a sort refines the requested order by the relation's own (see
// Relation.refine): rows equal on the longer key are equal on the old order
// too, hence in arrival order. A copy of a sorted base thus equals, fresh or
// patched, SortedCopy of the arrival-order twin by the copy's SortOrder.

// splice removes s[d] for each d of del and then inserts vals[k] in front
// of position at[k], in place: surviving runs move left once to close the
// gaps, then right once (from the back) to open the new ones. del holds
// distinct ascending positions of s; at holds ascending positions of s after
// the removal (len = append). Only an insert beyond s's capacity
// reallocates, with headroom so a stream of balanced deltas never does
// again.
func splice[T any](s []T, del, at []int32, vals []T) []T {
	n := len(s)
	if len(del) > 0 {
		w := int(del[0])
		for i, d := range del {
			end := n
			if i+1 < len(del) {
				end = int(del[i+1])
			}
			w += copy(s[w:], s[int(d)+1:end])
		}
		n = w
	}
	if len(at) == 0 {
		return s[:n]
	}
	m := n + len(at)
	if m > cap(s) {
		grown := make([]T, m, m+m/8)
		copy(grown, s[:n])
		s = grown
	} else {
		s = s[:m]
	}
	r, w := n, m
	for k := len(at) - 1; k >= 0; k-- {
		a := int(at[k])
		w -= r - a
		copy(s[w:], s[a:r])
		r = a
		w--
		s[w] = vals[k]
	}
	return s
}

// compactCoords translates ascending positions at, given in the coordinates
// of an array before the removal of the ascending positions del, into the
// coordinates after it: at[k] minus the number of deletes in front of it.
func compactCoords(at, del []int32) []int32 {
	out := make([]int32, len(at))
	d := 0
	for k, a := range at {
		for d < len(del) && del[d] < a {
			d++
		}
		out[k] = a - int32(d)
	}
	return out
}

// remapTable fills buf (grown to n) with where each surviving row moves
// under a patch of n rows: the row at old position p lands at p minus the
// deletes in front of it plus the inserts landing at or in front of it. del
// are the ascending removed positions, which map to -1, at the ascending
// old positions inserts land in front of. The table is what brings a
// postings array forward in one pass: positions shift monotonically, so
// entries of equal key keep their order, and the entries that map to -1
// are the victims'.
func remapTable(buf []int32, n int, del, at []int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n, n+n/8)
	}
	buf = buf[:n]
	d, a := 0, 0
	for p := range buf {
		for a < len(at) && int(at[a]) <= p {
			a++
		}
		if d < len(del) && int(del[d]) == p {
			buf[p] = -1
			d++
		} else {
			buf[p] = int32(p - d + a)
		}
	}
	return buf
}

// locator returns the index deletes are matched through: positional over the
// sort order when the relation has one (no storage), else over every
// discrete attribute, which narrows a tuple to its few duplicates.
func (r *Relation) locator() (*KeyIndex, error) {
	if len(r.sortOrder) > 0 {
		return r.index(r.sortOrder)
	}
	var attrs []AttrID
	for i, c := range r.Cols {
		if c.IsInt() {
			attrs = append(attrs, r.Attrs[i])
		}
	}
	return r.index(attrs)
}

// ErrUnmatchedDelete reports a delete tuple that matches no remaining row
// of its relation: the caller asked to remove data that is not there.
var ErrUnmatchedDelete = errors.New("delete tuples have no matching row")

// findVictims resolves each tuple of the delete block to the position of one
// distinct matching row — the first matches in row order, as a scan of the
// whole relation would pick them — and returns the positions ascending. The
// tuples are grouped by locator key, and the groups, in key order, are
// found by one galloping walk over the locator. Each group's tuples are
// sorted by full row, and its candidate rows are streamed in row order
// against them. Any tuple without a remaining match is an error and nothing
// has been touched.
func (r *Relation) findVictims(dels []Column, nd int) ([]int32, error) {
	if nd == 0 {
		return nil, nil
	}
	loc, err := r.locator()
	if err != nil {
		return nil, err
	}
	keyCols := loc.keyCols(dels)
	ids := identityIDs(nd)
	SortIDs(ids, keyCols)
	victims := make([]int32, 0, nd)
	// taken[i] counts the rows matched by the run of equal tuples that
	// starts at ids[i].
	taken := make([]int32, nd)
	var buf [4][]int64
	w, hi := loc.walk(buf[:]), 0
	for g := 0; g < nd; {
		h := g + 1
		for h < nd && sameRowKey(keyCols, ids[g], ids[h]) {
			h++
		}
		var lo int
		lo, hi = w.span(hi, keyCols, ids[g])
		group := ids[g:h]
		slices.SortFunc(group, func(x, y int32) int { return cmpRows(dels, x, dels, y) })
		for s, left := lo, len(group); s < hi && left > 0; s++ {
			row := loc.row(s)
			a := firstEqual(group, dels, r.Cols, row)
			if a < 0 {
				continue
			}
			run := 1
			for a+run < len(group) && cmpRows(dels, group[a], dels, group[a+run]) == 0 {
				run++
			}
			if c := &taken[g+a]; int(*c) < run {
				*c++
				victims = append(victims, row)
				left--
			}
		}
		g = h
	}
	if missing := nd - len(victims); missing > 0 {
		return nil, fmt.Errorf("data: relation %q: %d %w", r.Name, missing, ErrUnmatchedDelete)
	}
	slices.Sort(victims)
	return victims, nil
}

// firstEqual returns the index of the first tuple of group — rows of the
// block dels, sorted by cmpRows — equal to row y of cols, or -1.
func firstEqual(group []int32, dels, cols []Column, y int32) int {
	lo, hi, at := 0, len(group), -1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := cmpRows(dels, group[mid], cols, y); {
		case c < 0:
			lo = mid + 1
		case c == 0:
			at, hi = mid, mid
		default:
			hi = mid
		}
	}
	return at
}

// cmpRows compares row x of block a with row y of block b, both laid out in
// the relation's schema order, column by column: integers by value, floats
// by bit pattern, so equality is the full-row equality deletes match by.
func cmpRows(a []Column, x int32, b []Column, y int32) int {
	for c := range a {
		if a[c].IsInt() {
			if v, w := a[c].Ints[x], b[c].Ints[y]; v != w {
				return cmpLess(v < w)
			}
		} else if v, w := math.Float64bits(a[c].Floats[x]), math.Float64bits(b[c].Floats[y]); v != w {
			return cmpLess(v < w)
		}
	}
	return 0
}

func sameRowKey(keyCols [][]int64, x, y int32) bool {
	for _, kc := range keyCols {
		if kc[x] != kc[y] {
			return false
		}
	}
	return true
}

// landing decides where the tuples of the insert block go. An unsorted
// relation appends them behind the last row in block order. A sorted one
// merges them in sort order: the block's tuples are stably sorted by the
// relation's sort order and each lands behind the last existing row not
// greater than it, found by one galloping walk from the previous tuple's
// landing point. src[k] is the block tuple landing k-th, at[k] the
// pre-mutation position it lands in front of (ascending; r.n = the end).
func (r *Relation) landing(ins []Column, ni int) (src, at []int32, err error) {
	if ni == 0 {
		return nil, nil, nil
	}
	src = identityIDs(ni)
	at = make([]int32, ni)
	if len(r.sortOrder) == 0 {
		for k := range at {
			at[k] = int32(r.n)
		}
		return src, at, nil
	}
	pos, err := r.index(r.sortOrder)
	if err != nil {
		return nil, nil, err
	}
	keyCols := pos.keyCols(ins)
	SortIDs(src, keyCols)
	var buf [4][]int64
	w, hi := pos.walk(buf[:]), 0
	for k, t := range src {
		hi = w.seek(hi, keyCols, t, math.MaxInt32)
		at[k] = int32(hi)
	}
	return src, at, nil
}

// indexPatch is what a mutation adds to one postings array: the added
// rows' slots, in the coordinates before the removal, and their final row
// ids. The victims' entries need no search: the remap pass that brings the
// postings forward finds them (remapTable maps them to -1).
type indexPatch struct {
	ix    *KeyIndex
	slots []int32
	vals  []int32
}

// planIndex locates a mutation's inserts in ix's postings while the rows are
// still in their pre-mutation places: each added row's slot at (its key,
// the position it lands in front of) — entries of equal key are ordered by
// position, so the added row goes behind exactly the rows it lands behind.
// The inserts are put in postings order and found by one galloping walk.
//
// lmfao:requires keyIdxMu
func (r *Relation) planIndex(ix *KeyIndex, ins []Column, src, at, final []int32) indexPatch {
	p := indexPatch{ix: ix}
	if len(src) == 0 {
		return p
	}
	// Landing ranks ordered by (index key, rank), hence by (index key,
	// at[rank]): the order their entries take in the postings.
	keyCols := ix.keyCols(ins)
	rankKeys := make([][]int64, len(keyCols))
	for j, kc := range keyCols {
		rk := make([]int64, len(src))
		for k, t := range src {
			rk[k] = kc[t]
		}
		rankKeys[j] = rk
	}
	ranks := identityIDs(len(src))
	SortIDs(ranks, rankKeys)
	p.slots = make([]int32, len(src))
	p.vals = make([]int32, len(src))
	var buf [4][]int64
	w, s := ix.walk(buf[:]), 0
	for i, k := range ranks {
		s = w.seek(s, rankKeys, k, at[k])
		p.slots[i] = int32(s)
		p.vals[i] = final[k]
	}
	return p
}

// mutate removes one row per tuple of dels (matched by full-row equality)
// and adds the tuples of ins, patching the rows and every key index in
// place. A sorted relation stays sorted: the inserts merge into its sort
// order (see landing) — a base sorted in its plan order, or a sorted copy
// taking its base's delta; an unsorted one appends them. Either block may be
// nil. An unmatched delete tuple fails the call before anything is touched.
func (r *Relation) mutate(dels, ins []Column) error {
	nd, ni := blockLen(dels), blockLen(ins)
	del, err := r.findVictims(dels, nd)
	if err != nil {
		return err
	}
	src, at, err := r.landing(ins, ni)
	if err != nil {
		return err
	}
	// Final position of the k-th landing row: its landing point after the
	// removal, plus the added rows in front of it.
	atC := compactCoords(at, del)
	final := make([]int32, ni)
	for k := range final {
		final[k] = atC[k] + int32(k)
	}

	r.keyIdxMu.Lock()
	defer r.keyIdxMu.Unlock()
	var patches []indexPatch
	for _, ix := range r.keyIdx {
		if !ix.positional {
			patches = append(patches, r.planIndex(ix, ins, src, at, final))
		}
	}

	for c := range r.Cols {
		var vals Column // the added rows' values in landing order
		if ni > 0 {
			vals = ins[c].gather(src)
		}
		if col := &r.Cols[c]; col.IsInt() {
			col.Ints = splice(col.Ints, del, atC, vals.Ints)
		} else {
			col.Floats = splice(col.Floats, del, atC, vals.Floats)
		}
	}
	n := r.n
	r.n += ni - nd

	if len(patches) > 0 {
		r.remap = remapTable(r.remap, n, del, at)
		for _, p := range patches {
			perm, victims := p.ix.perm, make([]int32, 0, nd)
			for i, row := range perm {
				m := r.remap[row]
				if m < 0 {
					victims = append(victims, int32(i))
				}
				perm[i] = m
			}
			p.ix.perm = splice(perm, victims, compactCoords(p.slots, victims), p.vals)
		}
	}
	return nil
}
