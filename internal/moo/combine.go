package moo

import (
	"fmt"
	"slices"
)

// CombineViews merges the materialized views of disjoint data partitions
// into one: the group sets union and the aggregate values of shared groups
// add, column by column — hidden tuple-count columns included, so the merged
// view carries exactly the counts a single evaluation over the union of the
// partitions would have produced. This is the read-side merge behind sharded
// maintenance (an lmfao.Session of N > 1 shards): each shard evaluates the
// same query over its partition of the fact data, and because every join
// tuple of the full database lives in exactly one shard, summing per-shard
// aggregates over the unioned group set reconstructs the unsharded result.
//
// All parts must share one schema (same group-by attributes in the same
// order, same stride, same sort layout); nil or empty parts are skipped.
// The inputs are not mutated and share no storage with the result. The
// parts are sorted, so the merge is one linear pass over them and the
// result is sorted in their layout; a shared group's values sum in part
// order, starting from zero, as a builder would sum them.
//
// Correctness note for partitioned aggregation: per-part tuple counts are
// non-negative, so a group's merged count is zero only when every part
// reports it zero — a group can never vanish by cross-part cancellation, and
// zero-count rows never arise here (parts drop them before publication).
// Scalar (empty group-by) views stay single-row by construction: every part
// contributes the same empty key.
//
// lmfao:pre-publish
func CombineViews(parts []*ViewData) (*ViewData, error) {
	var ref *ViewData
	for _, p := range parts {
		if p == nil {
			continue
		}
		if ref == nil {
			ref = p
			continue
		}
		if err := sameViewSchema(ref, p); err != nil {
			return nil, err
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("moo: CombineViews over no views")
	}
	total, box := 0, ref.box
	var live []*ViewData
	for _, p := range parts {
		if p != nil && p.rows > 0 {
			total += p.rows
			live = append(live, p)
			box = unionBox(box, p.box)
		}
	}
	out := &ViewData{
		GroupBy: ref.GroupBy,
		Keys:    make([][]int64, len(ref.GroupBy)),
		Vals:    make([]float64, 0, total*ref.Stride),
		Stride:  ref.Stride,
		order:   slices.Clone(ref.order),
		nskey:   ref.nskey,
		box:     box,
	}
	for c := range out.Keys {
		out.Keys[c] = make([]int64, 0, total)
	}
	next := make([]int, len(live))
	for {
		// The smallest head row among the parts is the next output row.
		var low *ViewData
		lowRow := 0
		for i, p := range live {
			if next[i] < p.rows && (low == nil || cmpRows(p, next[i], low, lowRow) < 0) {
				low, lowRow = p, next[i]
			}
		}
		if low == nil {
			out.index()
			return out, nil
		}
		for c := range out.Keys {
			out.Keys[c] = append(out.Keys[c], low.Keys[c][lowRow])
		}
		out.Vals = append(out.Vals, make([]float64, out.Stride)...)
		dst := out.Vals[out.rows*out.Stride:]
		for i, p := range live {
			if r := next[i]; r < p.rows && cmpRows(p, r, low, lowRow) == 0 {
				for col, v := range p.Vals[r*p.Stride : (r+1)*p.Stride] {
					dst[col] += v
				}
				next[i]++
			}
		}
		out.rows++
	}
}

// sameViewSchema checks two views agree on group-by attributes, stride and
// sort layout.
func sameViewSchema(a, b *ViewData) error {
	if a.Stride != b.Stride || len(a.GroupBy) != len(b.GroupBy) ||
		a.nskey != b.nskey || !slices.Equal(a.order, b.order) {
		return fmt.Errorf("moo: CombineViews schema mismatch: %v vs %v", a, b)
	}
	for i := range a.GroupBy {
		if a.GroupBy[i] != b.GroupBy[i] {
			return fmt.Errorf("moo: CombineViews group-by mismatch: %v vs %v", a.GroupBy, b.GroupBy)
		}
	}
	return nil
}
