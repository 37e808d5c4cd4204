// Package moo implements LMFAO's physical layer: multi-output execution
// plans (paper §3.5) evaluated by a single trie-style scan over each view
// group's relation, the materialized view representation, and task/domain
// parallelism. It consumes the logical plans of internal/core.
package moo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/data"
)

// ViewData is a materialized view: group-by key columns plus row-major
// aggregate values. After finalization against its target node's schema it
// carries an index from the "consumer key" (group-by attributes shared with
// the target) to the contiguous range of entries for that key; the remaining
// group-by attributes are the view's extras, carried into consumer outputs.
//
// Published views are frozen: snapshot readers walk them with no locking,
// so every in-place mutation happens in builder/maintenance code that runs
// before the view is reachable from a snapshot (annotated
// lmfao:pre-publish); the sole post-publication write is the fullIdx
// atomic, which publishes a whole immutable map.
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

	// Consumer-side layout (set by finalize):
	skeyPos  []int // positions in GroupBy of the consumer-key attributes
	extraPos []int // positions in GroupBy of the carried attributes
	index    map[string][2]int32

	// fullIdx lazily maps packed full group-by keys to row indices; built by
	// the maintenance fast path (and by EnsureIndex before snapshot
	// publication) and shared across merges while the key columns are
	// shared. The pointer is atomic because the single writer may build the
	// index on a view concurrent readers already hold through a published
	// snapshot: a reader's Lookup observes either nil (and scans linearly)
	// or a fully built, immutable map. Only the writer ever builds.
	fullIdx atomic.Pointer[map[string]int32]
}

// fullKeyIndex returns (building on first use) the packed-full-key → row map.
// Building is writer-side only; a duplicate build is wasted work, never a
// torn read, because the map is published whole via the atomic pointer and
// never mutated afterwards.
func (v *ViewData) fullKeyIndex() map[string]int32 {
	if p := v.fullIdx.Load(); p != nil {
		return *p
	}
	idx := make(map[string]int32, v.rows)
	buf := make([]byte, 0, 8*len(v.GroupBy))
	for i := 0; i < v.rows; i++ {
		buf = buf[:0]
		for c := range v.GroupBy {
			buf = data.AppendKey(buf, v.Keys[c][i])
		}
		idx[string(buf)] = int32(i)
	}
	v.fullIdx.Store(&idx)
	return idx
}

// EnsureIndex pre-builds the full-key lookup index so subsequent Lookup
// calls are O(1) map probes. Sessions call it on every output view before
// publishing a snapshot: concurrent snapshot readers then share the
// immutable index and never build (or mutate) anything on the read path.
func (v *ViewData) EnsureIndex() { v.fullKeyIndex() }

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
func (v *ViewData) Extras() []data.AttrID {
	out := make([]data.AttrID, len(v.extraPos))
	for i, p := range v.extraPos {
		out[i] = v.GroupBy[p]
	}
	return out
}

// SizeBytes returns the in-memory payload size (keys + aggregates).
func (v *ViewData) SizeBytes() int64 {
	return int64(v.rows)*int64(len(v.GroupBy))*8 + int64(len(v.Vals))*8
}

// Lookup returns the row index for an exact full group-by key, or -1. It
// probes the full-key index when one has been built (EnsureIndex, or the
// maintenance fast path) and falls back to a linear scan otherwise — never
// building on the lookup path, so it is safe for concurrent readers of a
// published snapshot.
func (v *ViewData) Lookup(key ...int64) int {
	if len(key) != len(v.GroupBy) {
		return -1
	}
	if p := v.fullIdx.Load(); p != nil {
		buf := data.AppendKey(make([]byte, 0, 8*len(key)), key...)
		if r, ok := (*p)[string(buf)]; ok {
			return int(r)
		}
		return -1
	}
	for i := 0; i < v.rows; i++ {
		match := true
		for c := range key {
			if v.Keys[c][i] != key[c] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// viewBuilder accumulates rows during group execution. Emission keys arrive
// clustered by the scan order, so the last key/row pair is cached to skip
// the hash lookup on runs of equal keys.
type viewBuilder struct {
	vd      *ViewData
	lookup  map[string]int32
	keybuf  []byte
	lastKey string
	lastRow int32
}

func newViewBuilder(groupBy []data.AttrID, stride int, scalarInit bool) *viewBuilder {
	b := &viewBuilder{
		vd: &ViewData{
			GroupBy: groupBy,
			Keys:    make([][]int64, len(groupBy)),
			Stride:  stride,
		},
		lookup: make(map[string]int32),
		keybuf: make([]byte, 0, 8*len(groupBy)),
	}
	b.lastRow = -1
	if scalarInit && len(groupBy) == 0 {
		// Scalar application outputs always deliver one row (zero-valued
		// over an empty join), matching SQL aggregate semantics.
		b.row(nil)
	}
	return b
}

// row returns the row index for key, creating a zero-initialized row on
// first sight.
//
// lmfao:pre-publish
func (b *viewBuilder) row(key []int64) int32 {
	b.keybuf = data.AppendKey(b.keybuf[:0], key...)
	if b.lastRow >= 0 && string(b.keybuf) == b.lastKey {
		return b.lastRow
	}
	if r, ok := b.lookup[string(b.keybuf)]; ok {
		b.lastKey, b.lastRow = string(b.keybuf), r
		return r
	}
	r := int32(b.vd.rows)
	k := string(b.keybuf)
	b.lookup[k] = r
	for c := range key {
		b.vd.Keys[c] = append(b.vd.Keys[c], key[c])
	}
	for i := 0; i < b.vd.Stride; i++ {
		b.vd.Vals = append(b.vd.Vals, 0)
	}
	b.vd.rows++
	b.lastKey, b.lastRow = k, r
	return r
}

// add accumulates val into (row, col).
//
// lmfao:pre-publish
func (b *viewBuilder) add(row int32, col int, val float64) {
	b.vd.Vals[int(row)*b.vd.Stride+col] += val
}

// merge folds other into b by key, summing aggregates. Used to combine
// per-thread partial outputs of domain-parallel scans.
func (b *viewBuilder) merge(other *viewBuilder) {
	key := make([]int64, len(b.vd.GroupBy))
	for i := 0; i < other.vd.rows; i++ {
		for c := range key {
			key[c] = other.vd.Keys[c][i]
		}
		r := b.row(key)
		for col := 0; col < b.vd.Stride; col++ {
			b.add(r, col, other.vd.Val(i, col))
		}
	}
}

// finalize sorts the rows by (consumer key, extras) relative to the target
// node's schema and builds the consumer-key range index. Pass nil targetAttrs
// for application outputs (no consumer).
//
// lmfao:pre-publish
func (b *viewBuilder) finalize(targetAttrs []data.AttrID) *ViewData {
	v := b.vd
	if targetAttrs == nil {
		return v
	}
	inTarget := func(a data.AttrID) bool {
		for _, t := range targetAttrs {
			if t == a {
				return true
			}
		}
		return false
	}
	for p, a := range v.GroupBy {
		if inTarget(a) {
			v.skeyPos = append(v.skeyPos, p)
		} else {
			v.extraPos = append(v.extraPos, p)
		}
	}

	// Sort rows by (skey, extras).
	perm := make([]int32, v.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sortKeys := make([][]int64, 0, len(v.Keys))
	for _, c := range v.skeyPos {
		sortKeys = append(sortKeys, v.Keys[c])
	}
	for _, c := range v.extraPos {
		sortKeys = append(sortKeys, v.Keys[c])
	}
	data.SortIDs(perm, sortKeys)
	newKeys := make([][]int64, len(v.Keys))
	for c := range v.Keys {
		col := make([]int64, v.rows)
		for i, p := range perm {
			col[i] = v.Keys[c][p]
		}
		newKeys[c] = col
	}
	newVals := make([]float64, len(v.Vals))
	for i, p := range perm {
		copy(newVals[i*v.Stride:(i+1)*v.Stride], v.Vals[int(p)*v.Stride:(int(p)+1)*v.Stride])
	}
	v.Keys = newKeys
	v.Vals = newVals

	// Build the skey → entry-range index.
	v.index = make(map[string][2]int32, v.rows)
	buf := make([]byte, 0, 8*len(v.skeyPos))
	start := 0
	for i := 1; i <= v.rows; i++ {
		if i < v.rows && sameSKey(v, i-1, i) {
			continue
		}
		buf = buf[:0]
		for _, c := range v.skeyPos {
			buf = data.AppendKey(buf, v.Keys[c][start])
		}
		v.index[string(buf)] = [2]int32{int32(start), int32(i)}
		start = i
	}
	return v
}

func sameSKey(v *ViewData, i, j int) bool {
	for _, c := range v.skeyPos {
		if v.Keys[c][i] != v.Keys[c][j] {
			return false
		}
	}
	return true
}

// bind returns the entry range for a packed consumer key.
func (v *ViewData) bind(packed string) (lo, hi int32, ok bool) {
	r, ok := v.index[packed]
	return r[0], r[1], ok
}

// SKeyAttrs returns the consumer-key attributes in index order.
func (v *ViewData) SKeyAttrs() []data.AttrID {
	out := make([]data.AttrID, len(v.skeyPos))
	for i, p := range v.skeyPos {
		out[i] = v.GroupBy[p]
	}
	return out
}

// String summarizes the view for debugging.
func (v *ViewData) String() string {
	return fmt.Sprintf("view[groupby=%v rows=%d cols=%d]", v.GroupBy, v.rows, v.Stride)
}
