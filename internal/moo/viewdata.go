// Package moo implements LMFAO's physical layer: multi-output execution
// plans (paper §3.5) evaluated by a single trie-style scan over each view
// group's relation, the materialized view representation, and task/domain
// parallelism. It consumes the logical plans of internal/core.
package moo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/data"
)

// ViewData is a materialized view: group-by key columns plus row-major
// aggregate values. A finalized view is sorted: its rows are strictly
// increasing in the key columns taken in its sort order. For a view feeding
// a join-tree node that order is the consumer key (group-by attributes
// shared with the target) followed by the extras (the remaining group-by
// attributes, carried into consumer outputs); an application output is
// keyed and sorted by its whole group-by in GroupBy order. The maintenance
// merge is a linear merge over that order, and no view carries a hash
// index. A view whose consumer-key box is small next to its own payload
// carries a row directory (rowDir): binding a consumer key is then a range
// check and two loads, and Lookup searches only the extras of the bound
// rows. Without one, both are binary searches over the sort order.
//
// Published views are frozen: snapshot readers walk them with no locking,
// so every in-place mutation happens in builder/maintenance code that runs
// before the view is reachable from a snapshot (annotated
// lmfao:pre-publish), and nothing is written after publication.
//
// lmfao:immutable-after-publish
type ViewData struct {
	GroupBy []data.AttrID
	// Keys holds one column per group-by attribute (parallel to GroupBy).
	Keys [][]int64
	// Vals holds aggregate values row-major with stride Stride.
	Vals   []float64
	Stride int

	rows int

	// Sort layout (set by finalize): order lists GroupBy positions in sort
	// order, the first nskey of them the consumer key.
	order []int
	nskey int
	// box holds per key column a range holding every key value (a superset
	// after a merge; nil: unknown): consumers size dense builders from it.
	box []keySpan
	// dir, when set, indexes the rows by consumer-key slot (index).
	dir *rowDir
}

// rowDir indexes a view's rows by consumer key. cols lays out the
// consumer-key box in sort order (cols[j] for order[j], the last varying
// fastest), so slot order is row order, and start[s] is the first row whose
// slot is ≥ s: the rows of slot s are [start[s], start[s+1]).
type rowDir struct {
	cols  []denseCol
	start []int32
}

// slot returns the slot of key (consumer-key values in sort order); ok is
// false when key lies outside the box.
func (d *rowDir) slot(key []int64) (s int, ok bool) {
	for j, k := range key {
		dc := &d.cols[j]
		x := uint64(k - dc.lo)
		if x > dc.ext {
			return 0, false
		}
		s += int(x) * dc.mul
	}
	return s, true
}

// index gives v a row directory when its consumer-key box has at most
// SizeBytes/4 − 1 slots, so the directory is never larger than the keys and
// aggregates it indexes; otherwise v gets none and binds search. The rows
// must be sorted and inside the box.
//
// lmfao:pre-publish
func (v *ViewData) index() {
	limit := int(v.SizeBytes()/4) - 1
	if v.box == nil || limit < 1 {
		return
	}
	skey := v.order[:v.nskey]
	box := make([]keySpan, len(skey))
	for j, p := range skey {
		box[j] = v.box[p]
	}
	size, ok := boxSize(box, limit)
	if !ok {
		return
	}
	seq := make([]int, len(skey)) // box is already in sort order
	for j := range seq {
		seq[j] = j
	}
	d := &rowDir{cols: newDenseLayout(box, seq, size).cols, start: make([]int32, size+1)}
	key, s := make([]int64, len(skey)), 0
	for r := 0; r < v.rows; r++ {
		for j, p := range skey {
			key[j] = v.Keys[p][r]
		}
		sr, in := d.slot(key)
		if !in {
			// Only an engine bug leaves a key outside its view's box.
			panic(fmt.Sprintf("moo: consumer key %v outside its box %v", key, box))
		}
		for ; s <= sr; s++ {
			d.start[s] = int32(r)
		}
	}
	for ; s <= size; s++ {
		d.start[s] = int32(v.rows)
	}
	v.dir = d
}

// keySpan is a closed range [lo, hi] of key values; lo > hi is empty.
type keySpan struct{ lo, hi int64 }

var (
	emptySpan = keySpan{math.MaxInt64, math.MinInt64}
	// fullSpan stands for an unknown range: its width overflows any box.
	fullSpan = keySpan{math.MinInt64, math.MaxInt64}
)

func (s keySpan) union(t keySpan) keySpan { return keySpan{min(s.lo, t.lo), max(s.hi, t.hi)} }

// spanOf returns the range of col's values at positions ids, or of all of
// col when ids is nil.
func spanOf(col []int64, ids []int32) keySpan {
	s, n := emptySpan, len(col)
	if ids != nil {
		n = len(ids)
	}
	for i := 0; i < n; i++ {
		j := i
		if ids != nil {
			j = int(ids[i])
		}
		s.lo, s.hi = min(s.lo, col[j]), max(s.hi, col[j])
	}
	return s
}

// unionBox returns the column-wise union of two boxes, or nil when either
// is unknown.
func unionBox(a, b []keySpan) []keySpan {
	if a == nil || b == nil {
		return nil
	}
	out := make([]keySpan, len(a))
	for c := range out {
		out[c] = a[c].union(b[c])
	}
	return out
}

// NumRows returns the number of result tuples.
func (v *ViewData) NumRows() int { return v.rows }

// Val returns the aggregate in column col of row i.
func (v *ViewData) Val(i, col int) float64 { return v.Vals[i*v.Stride+col] }

// Key returns the group-by values of row i, in GroupBy order.
func (v *ViewData) Key(i int) []int64 {
	out := make([]int64, len(v.GroupBy))
	for c := range v.GroupBy {
		out[c] = v.Keys[c][i]
	}
	return out
}

// KeyAt returns the value of group-by column c in row i.
func (v *ViewData) KeyAt(i, c int) int64 { return v.Keys[c][i] }

// Extras returns the carried group-by attributes (set after finalize).
func (v *ViewData) Extras() []data.AttrID { return v.attrsAt(v.order[v.nskey:]) }

// SKeyAttrs returns the consumer-key attributes in sort order.
func (v *ViewData) SKeyAttrs() []data.AttrID { return v.attrsAt(v.order[:v.nskey]) }

func (v *ViewData) attrsAt(pos []int) []data.AttrID {
	out := make([]data.AttrID, len(pos))
	for i, p := range pos {
		out[i] = v.GroupBy[p]
	}
	return out
}

// SizeBytes returns the in-memory payload size (keys + aggregates).
func (v *ViewData) SizeBytes() int64 {
	return int64(v.rows)*int64(len(v.GroupBy))*8 + int64(len(v.Vals))*8
}

// Lookup returns the row index for an exact full group-by key (GroupBy
// order), or -1: the directory narrows to the consumer key's rows, and a
// binary search in the view's sort order finds the rest. It reads only
// frozen columns, so concurrent readers of a published snapshot share it.
func (v *ViewData) Lookup(key ...int64) int {
	if len(key) != len(v.GroupBy) {
		return -1
	}
	var buf [8]int64
	sk := buf[:0]
	for _, p := range v.order {
		sk = append(sk, key[p])
	}
	lo, hi, pos := 0, v.rows, v.order
	if v.dir != nil {
		l, h, ok := v.bind(sk[:v.nskey])
		if !ok {
			return -1
		}
		if v.nskey == len(pos) {
			return int(l) // keys are unique: the slot holds this one row
		}
		lo, hi, sk, pos = int(l), int(h), sk[v.nskey:], pos[v.nskey:]
	}
	if r := v.search(lo, hi, sk, pos, 0); r < hi && v.cmpAt(r, sk, pos) == 0 {
		return r
	}
	return -1
}

// cmpRows compares row i of a with row j of b in a's sort order (b must
// share a's layout).
func cmpRows(a *ViewData, i int, b *ViewData, j int) int {
	for _, p := range a.order {
		if x, y := a.Keys[p][i], b.Keys[p][j]; x != y {
			return cmpNe(x, y)
		}
	}
	return 0
}

// cmpNe orders two values known to differ. It takes one branch where
// cmp.Compare takes two, which made binds half again slower.
func cmpNe(a, b int64) int {
	if a < b {
		return -1
	}
	return 1
}

// cmpPrefix compares row r's leading sort-order columns with key.
func (v *ViewData) cmpPrefix(r int, key []int64) int { return v.cmpAt(r, key, v.order) }

// cmpAt compares row r's values in the GroupBy positions pos with key.
func (v *ViewData) cmpAt(r int, key []int64, pos []int) int {
	for j, k := range key {
		if x := v.Keys[pos[j]][r]; x != k {
			return cmpNe(x, k)
		}
	}
	return 0
}

// search returns the first row r in [lo, hi) whose values in the positions
// pos compare ≥ t against key (t = 0: lower bound; t = 1: end of the equal
// run), or hi. The rows in [lo, hi) must be sorted in pos.
func (v *ViewData) search(lo, hi int, key []int64, pos []int, t int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.cmpAt(mid, key, pos) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop is search in sort order over [lo, NumRows()) for a target expected
// near lo: it probes lo, lo+1, lo+3, lo+7, … before bisecting the last
// bracket.
func (v *ViewData) gallop(lo int, key []int64, t int) int {
	hi, step := lo, 1
	for hi < v.rows && v.cmpPrefix(hi, key) < t {
		lo = hi + 1
		hi = lo + step
		step <<= 1
	}
	return v.search(lo, min(hi, v.rows), key, v.order, t)
}

// bind returns the entry range of the rows whose consumer key equals key
// (consumer-key values in sort order); ok is false when there are none.
// With a directory that is the key's slot range, and a key outside the box
// has none.
func (v *ViewData) bind(key []int64) (lo, hi int32, ok bool) {
	if d := v.dir; d != nil {
		s, in := d.slot(key)
		if !in {
			return 0, 0, false
		}
		lo, hi = d.start[s], d.start[s+1]
		return lo, hi, hi > lo
	}
	l := v.search(0, v.rows, key, v.order, 0)
	h := v.gallop(l, key, 1)
	return int32(l), int32(h), h > l
}

// String summarizes the view for debugging.
func (v *ViewData) String() string {
	return fmt.Sprintf("view[groupby=%v rows=%d cols=%d]", v.GroupBy, v.rows, v.Stride)
}

// viewBuilder accumulates rows during group execution, addressed one of three
// ways (groupPlan.layouts picks):
//
//   - Run, for a view keyed by a prefix of the scan order: keys arrive in
//     scan order, so a key is the last row's or a new one. Rows go straight
//     into a window of an exact-size store (useRun), which finalize
//     publishes with no copy.
//   - Dense, for a small key box: slots hold row id + 1 (0 = empty), key's
//     slot is Σ (key[c] − lo[c]) · mul[c], with no probe, compare or growth.
//     A key outside the box panics: only an engine bug makes one, and
//     sharing a slot would be a wrong number.
//   - Hashed: an open-addressing table of row id + 1 hashed from the key
//     tuple, probes comparing in place against the key columns, the last row
//     first (scan keys arrive clustered). Keys reach hashed builders from
//     outside (update deltas, WAL replay) and the hash is invertible, so each
//     builder draws its own seed: keys chosen to share a slot would make
//     probes walk them.
//
// Row ids are first-seen order every way: results depend on no choice.
type viewBuilder struct {
	vd      *ViewData
	slots   []int32
	dense   *denseLayout // nil: hashed, len(slots) = 1<<(64-shift) ≥ 2 × rows
	shift   uint
	seed    uint64
	lastRow int32
	// win, when its store is set, is the window of a run store this builder
	// writes (useRun), and parts the run builders merged into it.
	win   runWindow
	parts []*viewBuilder
}

// runStore is a run-built view's exact-size key columns and values, shared by
// the builders of one execution: each writes its rows into its own window,
// in scan order, and finalize closes the gaps and publishes the store: as it
// is when sorted (the view's sort order is the scan's), else reordered in
// place through the view's key box walk or, without one, by sorting.
type runStore struct {
	keys   [][]int64
	vals   []float64
	sorted bool
	walk   *denseLayout
}

// runWindow is rows [off, off+n) of a run store.
type runWindow struct {
	store  *runStore
	off, n int
}

// useRun points b's key columns and values at w, empty with w's capacity:
// rows append in place, and neither slots nor growth are needed.
//
// lmfao:pre-publish
func (b *viewBuilder) useRun(w runWindow) {
	s := b.vd.Stride
	for c := range b.vd.Keys {
		b.vd.Keys[c] = w.store.keys[c][w.off:w.off:(w.off + w.n)]
	}
	b.vd.Vals = w.store.vals[w.off*s : w.off*s : (w.off+w.n)*s]
	b.slots, b.win = nil, w
}

// denseLayout addresses a key box: per GroupBy column its low bound, extent
// hi − lo and slot multiplier. A view's domain-parallel builders share it.
type denseLayout struct {
	cols []denseCol
	size int
}

type denseCol struct {
	lo  int64
	ext uint64
	mul int
}

// newDenseLayout lays out box, of size slots (boxSize), with multipliers
// following order (sortOrder's; the last position varies fastest).
func newDenseLayout(box []keySpan, order []int, size int) *denseLayout {
	dl := &denseLayout{cols: make([]denseCol, len(box)), size: size}
	mul := 1
	for j := len(order) - 1; j >= 0; j-- {
		s := box[order[j]]
		ext := uint64(s.hi - s.lo)
		dl.cols[order[j]] = denseCol{lo: s.lo, ext: ext, mul: mul}
		mul *= int(ext + 1)
	}
	return dl
}

// boxSize returns the slot count of box; ok is false when a span is empty or
// the box holds more than limit slots.
func boxSize(box []keySpan, limit int) (size int, ok bool) {
	size = 1
	for _, s := range box {
		w := uint64(s.hi-s.lo) + 1 // 0: the whole int64 range
		if s.hi < s.lo || w == 0 || w > uint64(limit/size) {
			return 0, false
		}
		size *= int(w)
	}
	return size, size <= limit
}

const builderMinShift = 61 // 8 initial slots

// newViewBuilder returns a builder addressing rows through dense, or hashed
// when dense is nil.
func newViewBuilder(groupBy []data.AttrID, stride int, scalarInit bool, dense *denseLayout) *viewBuilder {
	b := &viewBuilder{
		vd: &ViewData{
			GroupBy: groupBy,
			Keys:    make([][]int64, len(groupBy)),
			Stride:  stride,
		},
		dense:   dense,
		lastRow: -1,
	}
	if dense != nil {
		b.slots = make([]int32, dense.size)
	} else {
		b.slots, b.shift, b.seed = make([]int32, 1<<(64-builderMinShift)), builderMinShift, rand.Uint64()
	}
	if scalarInit && len(groupBy) == 0 {
		// Scalar application outputs always deliver one row (zero-valued
		// over an empty join), matching SQL aggregate semantics.
		b.row(nil)
	}
	return b
}

// hashStep folds one key value into a tuple hash. The final multiply leaves
// the high bits depending on every value, and the table indexes by them.
func hashStep(h uint64, k int64) uint64 { return (h ^ uint64(k)) * hashMul }

const hashMul = 0x9E3779B97F4A7C15

// rowEquals reports whether row r's key equals key (GroupBy order).
func (v *ViewData) rowEquals(r int, key []int64) bool {
	for c, k := range key {
		if v.Keys[c][r] != k {
			return false
		}
	}
	return true
}

// row returns the row index for key, creating a zero-initialized row on
// first sight.
//
// lmfao:pre-publish
func (b *viewBuilder) row(key []int64) int32 {
	v, i := b.vd, 0
	switch {
	case b.dense != nil:
		for c, k := range key {
			dc := &b.dense.cols[c]
			d := uint64(k - dc.lo)
			if d > dc.ext {
				panic(fmt.Sprintf("moo: key column %d value %d outside its dense box [%d, %d]", c, k, dc.lo, dc.lo+int64(dc.ext)))
			}
			i += int(d) * dc.mul
		}
		if r := b.slots[i]; r != 0 {
			return r - 1
		}
	case b.lastRow >= 0 && v.rowEquals(int(b.lastRow), key):
		return b.lastRow
	case b.win.store != nil:
		if v.rows == b.win.n {
			// Appending would leave the store: only an engine bug does it.
			panic(fmt.Sprintf("moo: key %v overflows a run window of %d rows", key, b.win.n))
		}
	default:
		h := b.seed
		for _, k := range key {
			h = hashStep(h, k)
		}
		mask := len(b.slots) - 1
		for i = int(h >> b.shift); b.slots[i] != 0; i = (i + 1) & mask {
			if r := b.slots[i] - 1; v.rowEquals(int(r), key) {
				b.lastRow = r
				return r
			}
		}
	}
	r := int32(v.rows)
	if b.slots != nil {
		b.slots[i] = r + 1
	}
	for c, k := range key {
		v.Keys[c] = append(v.Keys[c], k)
	}
	v.Vals = append(v.Vals, make([]float64, v.Stride)...)
	v.rows++
	if b.dense == nil && b.slots != nil && 2*v.rows > len(b.slots) {
		b.grow()
	}
	b.lastRow = r
	return r
}

// grow doubles the table and re-inserts every row, hashing from the key
// columns.
func (b *viewBuilder) grow() {
	b.shift--
	b.slots = make([]int32, 1<<(64-b.shift))
	mask := len(b.slots) - 1
	keys := b.vd.Keys
	for r := 0; r < b.vd.rows; r++ {
		h := b.seed
		for _, col := range keys {
			h = hashStep(h, col[r])
		}
		i := int(h >> b.shift)
		for b.slots[i] != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = int32(r) + 1
	}
}

// add accumulates val into (row, col).
//
// lmfao:pre-publish
func (b *viewBuilder) add(row int32, col int, val float64) {
	b.vd.Vals[int(row)*b.vd.Stride+col] += val
}

// merge folds other into b by key, summing aggregates. Used to combine
// per-thread partial outputs of domain-parallel scans (one shared layout),
// in chunk order. Run builders hold disjoint keys in one store: finalize
// appends other's rows after b's.
func (b *viewBuilder) merge(other *viewBuilder) {
	if b.win.store != nil {
		b.parts = append(append(b.parts, other), other.parts...)
		return
	}
	addViewInto(b, other.vd, 1)
}

// addViewInto folds src's rows into b, scaling every aggregate by sign.
func addViewInto(b *viewBuilder, src *ViewData, sign float64) {
	if src == nil {
		return
	}
	key := make([]int64, len(src.GroupBy))
	for i := 0; i < src.rows; i++ {
		for c := range key {
			key[c] = src.Keys[c][i]
		}
		r := b.row(key)
		for col := 0; col < src.Stride; col++ {
			b.add(r, col, sign*src.Val(i, col))
		}
	}
}

// sortOrder returns the sort layout of a view feeding a node with schema
// targetAttrs (nil for an application output, keyed by its whole group-by in
// GroupBy order): GroupBy positions in sort order, nskey of them the key.
func sortOrder(groupBy, targetAttrs []data.AttrID) (order []int, nskey int) {
	inKey := func(a data.AttrID) bool { return targetAttrs == nil || slices.Contains(targetAttrs, a) }
	order = make([]int, 0, len(groupBy))
	for p, a := range groupBy {
		if inKey(a) {
			order = append(order, p)
		}
	}
	nskey = len(order)
	for p, a := range groupBy {
		if !inKey(a) {
			order = append(order, p)
		}
	}
	return order, nskey
}

// finalize lays the rows out in their sort order relative to the target
// node's schema. Dense multipliers follow the sort order and keys are unique,
// so the slots walked in index order give the permutation data.SortIDs would;
// a hashed builder sorts, and a run builder reorders its store in place
// (closeRuns). The view then gets its row directory (index), and the slot
// table is released.
//
// lmfao:pre-publish
func (b *viewBuilder) finalize(targetAttrs []data.AttrID) *ViewData {
	v := b.vd
	v.order, v.nskey = sortOrder(v.GroupBy, targetAttrs)
	switch {
	case b.win.store != nil:
		b.closeRuns()
	case b.dense == nil:
		v.sortRows()
	default:
		v.permute(walkSlots(b.slots, v.rows))
	}
	v.index()
	b.slots, b.parts = nil, nil
	return v
}

// walkSlots returns the row ids held in slots (row id + 1, 0 = empty), in
// slot order.
func walkSlots(slots []int32, rows int) []int32 {
	perm := make([]int32, 0, rows)
	for _, s := range slots {
		if s != 0 {
			perm = append(perm, s-1)
		}
	}
	return perm
}

// slotPerm returns the permutation that lays the rows out in sort order,
// found as a dense builder finds it: each row in its slot of dl, whose
// multipliers follow the sort order, then the slots walked in index order.
func (v *ViewData) slotPerm(dl *denseLayout) []int32 {
	slots := make([]int32, dl.size)
	for r := 0; r < v.rows; r++ {
		i := 0
		for c, col := range v.Keys {
			i += int(uint64(col[r]-dl.cols[c].lo)) * dl.cols[c].mul
		}
		slots[i] = int32(r) + 1
	}
	return walkSlots(slots, v.rows)
}

// closeRuns publishes the run store of b and of the builders merged into it:
// each window's rows move down over the unused rows before it, in chunk
// order, which keeps them in scan order, and a store not sorted in it is
// reordered in place. A store left with unused rows (keys that met no join
// tuple) is then copied to exact size, as a hashed builder would hold no row
// for them either.
//
// lmfao:pre-publish
func (b *viewBuilder) closeRuns() {
	v, st, s := b.vd, b.win.store, b.vd.Stride
	rows := 0
	for _, p := range append([]*viewBuilder{b}, b.parts...) {
		off, m := p.win.off, p.vd.rows
		for _, col := range st.keys {
			copy(col[rows:], col[off:off+m])
		}
		copy(st.vals[rows*s:], st.vals[off*s:(off+m)*s])
		rows += m
	}
	v.rows, v.Vals = rows, st.vals[:rows*s]
	for c, col := range st.keys {
		v.Keys[c] = col[:rows]
	}
	switch {
	case st.sorted:
	case st.walk != nil:
		v.permuteInPlace(v.slotPerm(st.walk))
	default:
		v.permuteInPlace(v.sortPerm())
	}
	v.box = make([]keySpan, len(v.Keys))
	for c := range v.Keys {
		if rows < len(st.keys[c]) {
			v.Keys[c] = slices.Clone(v.Keys[c])
		}
		v.box[c] = spanOf(v.Keys[c], nil)
	}
	if rows*s < len(st.vals) {
		v.Vals = slices.Clone(v.Vals)
	}
	b.win = runWindow{}
}

// permuteInPlace reorders the rows so that row i is the old row perm[i],
// following each cycle of perm with one row of scratch; perm is consumed.
//
// lmfao:pre-publish
func (v *ViewData) permuteInPlace(perm []int32) {
	s := v.Stride
	row, key := make([]float64, s), make([]int64, len(v.Keys))
	for i := range perm {
		if perm[i] == int32(i) {
			continue
		}
		copy(row, v.Vals[i*s:(i+1)*s])
		for c, col := range v.Keys {
			key[c] = col[i]
		}
		j := i
		for int(perm[j]) != i {
			k := int(perm[j])
			copy(v.Vals[j*s:(j+1)*s], v.Vals[k*s:(k+1)*s])
			for _, col := range v.Keys {
				col[j] = col[k]
			}
			perm[j], j = int32(j), k
		}
		copy(v.Vals[j*s:(j+1)*s], row)
		for c, col := range v.Keys {
			col[j] = key[c]
		}
		perm[j] = int32(j)
	}
}

// sortRows permutes the rows into the view's sort order.
//
// lmfao:pre-publish
func (v *ViewData) sortRows() { v.permute(v.sortPerm()) }

// sortPerm returns the permutation that lays the rows out in sort order.
func (v *ViewData) sortPerm() []int32 {
	perm := make([]int32, v.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sortKeys := make([][]int64, len(v.order))
	for i, p := range v.order {
		sortKeys[i] = v.Keys[p]
	}
	data.SortIDs(perm, sortKeys)
	return perm
}

// permute reorders the rows so that row i is the old row perm[i], and
// records the key box.
//
// lmfao:pre-publish
func (v *ViewData) permute(perm []int32) {
	v.box = make([]keySpan, len(v.Keys))
	for c, old := range v.Keys {
		col := make([]int64, v.rows)
		for i, p := range perm {
			col[i] = old[p]
		}
		v.Keys[c], v.box[c] = col, spanOf(col, nil)
	}
	newVals := make([]float64, len(v.Vals))
	for i, p := range perm {
		copy(newVals[i*v.Stride:(i+1)*v.Stride], v.Vals[int(p)*v.Stride:(int(p)+1)*v.Stride])
	}
	v.Vals = newVals
}
