package data

import (
	"errors"
	"fmt"
	"slices"
)

// Physical design under updates. A relation's rows, a sorted copy of them and
// every key index are kept current by one operation, mutate — a copy takes
// each delta its base takes (Relation.ApplyDelta on both) — whose cost is
// proportional to the delta: O(|δ| log |R|) searching to find what the delta
// touches, then allocation-free linear passes (memmove between the touched
// positions) over the affected arrays. Nothing is re-sorted or re-hashed —
// the full sort survives only as the base case, building a structure that
// has no previous state to patch (SortedCopy, the first KeyIndex call).
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
// are the ascending removed positions (their own slots are left
// meaningless), at the ascending old positions inserts land in front of.
// The table is what brings a postings array forward in one pass: positions
// shift monotonically, so entries of equal key keep their order.
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
		buf[p] = int32(p - d + a)
		if d < len(del) && int(del[d]) == p {
			d++
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
// tuples are grouped by locator key; each group's candidate rows (one index
// probe) are walked once. Any tuple without a remaining match is an error
// and nothing has been touched.
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
	key := make([]int64, len(keyCols))
	want := make(map[string]int)
	var buf []byte
	for g := 0; g < nd; {
		h := g + 1
		for h < nd && sameRowKey(keyCols, ids[g], ids[h]) {
			h++
		}
		fillKey(key, keyCols, ids[g])
		// Count the group's tuples by packed row and stream the candidate
		// rows (ascending) against the counts: the first matches win.
		clear(want)
		for _, t := range ids[g:h] {
			buf = packRow(buf[:0], dels, int(t))
			want[string(buf)]++
		}
		lo, hi := loc.span(key)
		for s, left := lo, h-g; s < hi && left > 0; s++ {
			row := loc.row(s)
			buf = packRow(buf[:0], r.Cols, int(row))
			if c := want[string(buf)]; c > 0 {
				want[string(buf)] = c - 1
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

// fillKey copies row's values of the key columns into key.
func fillKey(key []int64, keyCols [][]int64, row int32) {
	for j, kc := range keyCols {
		key[j] = kc[row]
	}
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
// greater than it. src[k] is the block tuple landing k-th, at[k] the
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
	key := make([]int64, len(keyCols))
	for k, t := range src {
		if k > 0 && sameRowKey(keyCols, src[k-1], t) {
			at[k] = at[k-1]
			continue
		}
		fillKey(key, keyCols, t)
		_, hi := pos.span(key)
		at[k] = int32(hi)
	}
	return src, at, nil
}

// indexPatch is what a mutation does to one postings array: the slots of the
// victims' entries, and for the added rows their slots (in the coordinates
// after the removal) and final row ids.
type indexPatch struct {
	ix   *KeyIndex
	del  []int32
	at   []int32
	vals []int32
}

// planIndex locates a mutation's edits in ix's postings while the rows are
// still in their pre-mutation places: each victim's entry by searching for
// (its key, its position), each added row's slot by searching for (its key,
// the position it lands in front of) — entries of equal key are ordered by
// position, so the added row goes behind exactly the rows it lands behind.
//
// lmfao:requires keyIdxMu
func (r *Relation) planIndex(ix *KeyIndex, del []int32, ins []Column, src, at, final []int32) indexPatch {
	p := indexPatch{ix: ix}
	// slot returns the first slot whose (key, row) is not below (key, row).
	slot := func(key []int64, row int32) int32 {
		lo, hi := 0, len(ix.perm)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			c := ix.cmpSlot(mid, key)
			if c < 0 || (c == 0 && ix.perm[mid] < row) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
	key := make([]int64, len(ix.cols))
	if len(del) > 0 {
		p.del = make([]int32, len(del))
		own := ix.keyCols(r.Cols)
		for i, v := range del {
			fillKey(key, own, v)
			p.del[i] = slot(key, v)
		}
		slices.Sort(p.del)
	}
	if len(src) > 0 {
		// Landing ranks ordered by (index key, rank): the order their
		// entries take in the postings.
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
		slots := make([]int32, len(src))
		p.vals = make([]int32, len(src))
		for i, k := range ranks {
			fillKey(key, rankKeys, k)
			slots[i] = slot(key, at[k])
			p.vals[i] = final[k]
		}
		p.at = compactCoords(slots, p.del)
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
			patches = append(patches, r.planIndex(ix, del, ins, src, at, final))
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
			perm := p.ix.perm
			for i, row := range perm {
				perm[i] = r.remap[row]
			}
			p.ix.perm = splice(perm, p.del, p.at, p.vals)
		}
	}
	return nil
}
