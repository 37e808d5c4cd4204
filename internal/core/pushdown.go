package core

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/query"
)

// pushdown decomposes every query into directional views along the join tree
// toward its assigned root (paper §3.2, "Aggregate Pushdown" layer). For each
// term (a product of unary factors), factors over attributes inside a child
// subtree are pushed into the view flowing out of that child; group-by
// attributes inside the subtree are carried as extra group-by attributes of
// the child view; every child edge contributes a (possibly pure count)
// aggregate because tuple multiplicities multiply across the join.
//
// The returned views are in topological order (inputs before consumers);
// outputs[i] is the raw output view of queries[i].
func pushdown(t *jointree.Tree, queries []*query.Query, roots []int) (views, outputs []*View, rawCount int, err error) {
	b := &pushdownBuilder{
		t:        t,
		edgeView: make(map[edgeKey]int),
		adj:      sortedAdj(t),
	}
	for qi, q := range queries {
		out := &View{
			From:    roots[qi],
			To:      QueryTarget,
			GroupBy: sortAttrs(append([]data.AttrID(nil), q.GroupBy...)),
			Query:   qi,
		}
		sigIdx := make(map[string]int)
		for _, agg := range q.Aggs {
			col := OutputCol{Name: agg.Name}
			for _, term := range agg.Terms {
				pa, err := b.buildTerm(qi, roots[qi], -1, out.GroupBy, term.Factors)
				if err != nil {
					return nil, nil, 0, fmt.Errorf("query %q, aggregate %q: %w", q.Name, agg.Name, err)
				}
				idx := addAgg(out, sigIdx, pa)
				col.Aggs = append(col.Aggs, idx)
				col.Coefs = append(col.Coefs, term.Coef)
			}
			out.Cols = append(out.Cols, col)
		}
		outputs = append(outputs, out)
		// Paper accounting: one view per aggregate per edge (e.g. "814
		// aggregates × 4 edges = 3,256 views" before consolidation).
		rawCount += len(q.Aggs) * (len(t.Nodes) - 1)
	}
	return b.views, outputs, rawCount, nil
}

type edgeKey struct {
	query    int
	from, to int
}

type pushdownBuilder struct {
	t        *jointree.Tree
	adj      [][]int
	views    []*View
	edgeView map[edgeKey]int
	sigIdx   []map[string]int // per raw view: ProdAgg signature → index
}

// buildTerm constructs the ProdAgg computing Π factors restricted to the
// subtree rooted at node (with the edge to parent removed), grouped by fsub.
// It recursively creates the child views the product depends on.
func (b *pushdownBuilder) buildTerm(qi, node, parent int, fsub []data.AttrID, factors []query.Factor) (ProdAgg, error) {
	n := b.t.Nodes[node]
	var local, rest []query.Factor
	for _, f := range factors {
		if !f.HasAttr() || n.HasAttr(f.Attr) {
			local = append(local, f)
		} else {
			rest = append(rest, f)
		}
	}
	pa := ProdAgg{Factors: local}
	for _, c := range b.adj[node] {
		if c == parent {
			continue
		}
		below := b.t.AttrsBelow(c, node)

		// Factors whose attribute lives (exclusively) in this subtree.
		var sub []query.Factor
		var keep []query.Factor
		for _, f := range rest {
			if containsAttr(below, f.Attr) {
				sub = append(sub, f)
			} else {
				keep = append(keep, f)
			}
		}
		rest = keep

		fc := childGroupBy(b.t, node, c, fsub)
		childAgg, err := b.buildTerm(qi, c, node, fc, sub)
		if err != nil {
			return ProdAgg{}, err
		}
		vid := b.getView(qi, c, node, fc)
		aggIdx := addAgg(b.views[vid], b.sigIdx[vid], childAgg)
		pa.Inputs = append(pa.Inputs, InputRef{View: vid, Agg: aggIdx})
	}
	if len(rest) > 0 {
		return ProdAgg{}, fmt.Errorf("core: factor over attribute %d not reachable from node %d",
			rest[0].Attr, node)
	}
	return pa, nil
}

// childGroupBy returns F_c, the group-by of the view flowing from child c
// into node when the view out of node groups by fsub: F_c = (fsub ∩
// (ω_subtree \ ω_node)) ∪ (ω_node ∩ ω_child), the group-by attributes
// carried up from c's subtree plus the join key with c. Pushdown and the
// root cost model (roots.go) both derive view keys through it.
func childGroupBy(t *jointree.Tree, node, c int, fsub []data.AttrID) []data.AttrID {
	n := t.Nodes[node]
	var fc, below []data.AttrID
	for _, g := range fsub {
		if n.HasAttr(g) {
			continue
		}
		if below == nil {
			below = t.AttrsBelow(c, node)
		}
		if containsAttr(below, g) {
			fc = append(fc, g)
		}
	}
	return sortAttrs(append(fc, t.PathAttrs(node, c)...))
}

// getView returns the raw directional view for (query, from→to), creating it
// on first use. Creation happens after the child's subtree recursion, so raw
// view IDs are a topological order (inputs have smaller IDs).
func (b *pushdownBuilder) getView(qi, from, to int, groupBy []data.AttrID) int {
	k := edgeKey{qi, from, to}
	if id, ok := b.edgeView[k]; ok {
		return id
	}
	id := len(b.views)
	b.views = append(b.views, &View{
		ID:      id,
		From:    from,
		To:      to,
		GroupBy: groupBy,
		Query:   -1,
	})
	b.sigIdx = append(b.sigIdx, make(map[string]int))
	b.edgeView[k] = id
	return id
}

// addAgg registers pa in v, deduplicating by structural signature, and
// returns its index.
func addAgg(v *View, sigIdx map[string]int, pa ProdAgg) int {
	var buf [256]byte
	sig := pa.AppendSignature(buf[:0])
	if i, ok := sigIdx[string(sig)]; ok {
		return i
	}
	i := len(v.Aggs)
	v.Aggs = append(v.Aggs, pa)
	sigIdx[string(sig)] = i
	return i
}

// sortedAdj returns adjacency lists with deterministic neighbor order.
func sortedAdj(t *jointree.Tree) [][]int {
	adj := make([][]int, len(t.Adj))
	for i, ns := range t.Adj {
		adj[i] = append([]int(nil), ns...)
		sort.Ints(adj[i])
	}
	return adj
}
