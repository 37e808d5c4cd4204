// Package core implements the logical optimization layers of LMFAO
// (paper Figure 1): Find Roots, Aggregate Pushdown into directional views,
// Merge Views, and Group Views with their dependency graph. The output is a
// Plan consumed by the multi-output executor (internal/moo).
package core

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"repro/internal/data"
	"repro/internal/query"
)

// InputRef references one aggregate (column) of an incoming view.
type InputRef struct {
	View int // view ID
	Agg  int // product-aggregate index within that view
}

// ProdAgg is a single product aggregate inside a directional view:
// Π local factors × Π referenced child-view aggregates. Aggregate pushdown
// decomposes every term of every application aggregate into a chain of
// ProdAggs along the join tree. Coefficients stay at the output layer so that
// structurally identical products from different terms share one ProdAgg.
type ProdAgg struct {
	Factors []query.Factor // factors over attributes of the view's node
	Inputs  []InputRef     // at most one per child edge
}

// Signature returns a structural identity used for aggregate deduplication
// (paper merge case: "identical views constructed for different aggregates").
// It is only meaningful after the referenced views have canonical IDs.
func (p ProdAgg) Signature() string { return string(p.AppendSignature(nil)) }

// AppendSignature appends the bytes of Signature to dst: the factors' and
// inputs' signatures (query.Factor.AppendSignature, "v<view>.<agg>"), sorted,
// joined by '*'. Planning keys its aggregate dedup by these bytes.
func (p ProdAgg) AppendSignature(dst []byte) []byte {
	var buf [256]byte
	var ends [16]int
	b, end := buf[:0], ends[:0]
	for _, f := range p.Factors {
		b = f.AppendSignature(b)
		end = append(end, len(b))
	}
	for _, in := range p.Inputs {
		b = strconv.AppendInt(append(b, 'v'), int64(in.View), 10)
		b = strconv.AppendInt(append(b, '.'), int64(in.Agg), 10)
		end = append(end, len(b))
	}
	part := func(i int) []byte {
		if i == 0 {
			return b[:end[0]]
		}
		return b[end[i-1]:end[i]]
	}
	var idx [16]int
	order := idx[:0]
	for i := range end {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return bytes.Compare(part(i), part(j)) })
	for k, i := range order {
		if k > 0 {
			dst = append(dst, '*')
		}
		dst = append(dst, part(i)...)
	}
	return dst
}

// OutputCol describes one application-level aggregate column of an output
// view: the sum of its terms' ProdAggs weighted by the term coefficients.
type OutputCol struct {
	Name  string
	Aggs  []int // ProdAgg indices within the view
	Coefs []float64
}

// View is a directional view (paper §3.2) or, when To == QueryTarget, the
// output of an application query computed at its root node.
type View struct {
	ID      int
	From    int // join-tree node the view is computed at
	To      int // neighboring node it flows to, or QueryTarget
	GroupBy []data.AttrID
	Aggs    []ProdAgg
	Cols    []OutputCol // column map; for internal views, one col per agg

	// Query is the batch index of the originating query for output views
	// (To == QueryTarget); -1 otherwise.
	Query int
}

// QueryTarget marks output views: they flow to the application, not along an
// edge.
const QueryTarget = -1

// IsOutput reports whether the view is an application query output.
func (v *View) IsOutput() bool { return v.To == QueryTarget }

// NumCols returns the number of result columns of the view.
func (v *View) NumCols() int { return len(v.Cols) }

// InputViews returns the sorted set of distinct view IDs referenced by the
// view's aggregates.
func (v *View) InputViews() []int {
	set := map[int]struct{}{}
	for _, a := range v.Aggs {
		for _, in := range a.Inputs {
			set[in.View] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// appendGroupBySig appends a canonical key of the group-by attribute list:
// the IDs joined by ','.
func appendGroupBySig(dst []byte, gb []data.AttrID) []byte {
	for i, a := range gb {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return dst
}

// sortAttrs sorts and deduplicates attribute IDs in place, returning the
// result.
func sortAttrs(ids []data.AttrID) []data.AttrID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
