package core

import (
	"sort"

	"repro/internal/data"
	"repro/internal/jointree"
)

// Per-view provenance and the optional per-view tuple-count aggregate. Both
// exist for incremental view maintenance (internal/ivm): provenance tells the
// maintenance layer which base relations feed a view through the join tree
// (hence which views are dirtied by a delta), and the count column tells it
// when a group-by key's underlying join tuples have all been deleted, so the
// row can be dropped exactly (counts are integer-valued, so a float64
// comparison against zero is exact).

// CountColName names the hidden tuple-count column appended to output views
// when PlanOptions.TrackCounts is set. Applications should ignore it.
const CountColName = "__ivm_count"

// computeProvenance returns, per view, the sorted join-tree node IDs whose
// base relations feed the view: the component of View.From when the edge
// (From, To) is cut, or every node for output views.
func computeProvenance(t *jointree.Tree, views []*View) [][]int {
	memo := make(map[[2]int][]int)
	component := func(from, to int) []int {
		key := [2]int{from, to}
		if got, ok := memo[key]; ok {
			return got
		}
		var out []int
		var dfs func(u, block int)
		dfs = func(u, block int) {
			out = append(out, u)
			for _, v := range t.Adj[u] {
				if v != block {
					dfs(v, u)
				}
			}
		}
		dfs(from, to)
		sort.Ints(out)
		memo[key] = out
		return out
	}
	all := make([]int, len(t.Nodes))
	for i := range all {
		all[i] = i
	}
	prov := make([][]int, len(views))
	for i, v := range views {
		if v.IsOutput() {
			prov[i] = all
		} else {
			prov[i] = component(v.From, v.To)
		}
	}
	return prov
}

// computeConsumerKeys returns, per internal view, the group-by attributes
// that also appear in the consuming node's schema (ascending; View.GroupBy is
// already sorted). This is the consumer key the executor binds the view on,
// and the attribute list a semi-join-restricted maintenance scan indexes the
// consumer's base relation by. Output views have no consumer, hence nil.
func computeConsumerKeys(t *jointree.Tree, views []*View) [][]data.AttrID {
	out := make([][]data.AttrID, len(views))
	for i, v := range views {
		if v.IsOutput() {
			continue
		}
		node := t.Nodes[v.To]
		for _, g := range v.GroupBy {
			if node.HasAttr(g) {
				out[i] = append(out[i], g)
			}
		}
	}
	return out
}

// FeedsView reports whether node is in view v's provenance.
func (p *Plan) FeedsView(v, node int) bool {
	prov := p.Provenance[v]
	i := sort.SearchInts(prov, node)
	return i < len(prov) && prov[i] == node
}

// addCountAggs appends a pure tuple-count aggregate to every view, in
// topological (ID) order so child counts exist before their consumers, and
// returns the per-view column index holding the count. The count ProdAgg
// mirrors the pushdown invariant that every product has exactly one input
// per child edge: it references the count aggregate of one representative
// input view per edge (any is sound — summing a carried view's counts over
// its extra group-by attributes yields the same subtree tuple count).
func addCountAggs(t *jointree.Tree, views []*View) []int {
	countAgg := make([]int, len(views)) // per view: ProdAgg index of the count
	countCol := make([]int, len(views))
	for _, v := range views {
		node := t.Nodes[v.From]
		// One representative input per child edge, preferring views whose
		// group-by stays within the node schema (scalar lookups in the
		// executor) over carried ones; ties by smallest ID.
		repByEdge := map[int]int{} // child node → view ID
		flat := func(w *View) bool {
			for _, g := range w.GroupBy {
				if !node.HasAttr(g) {
					return false
				}
			}
			return true
		}
		for _, in := range v.InputViews() {
			w := views[in]
			cur, ok := repByEdge[w.From]
			if !ok {
				repByEdge[w.From] = in
				continue
			}
			curW := views[cur]
			if flat(w) != flat(curW) {
				if flat(w) {
					repByEdge[w.From] = in
				}
				continue
			}
			if in < cur {
				repByEdge[w.From] = in
			}
		}
		var edges []int
		for c := range repByEdge {
			edges = append(edges, c)
		}
		sort.Ints(edges)
		pa := ProdAgg{}
		for _, c := range edges {
			in := repByEdge[c]
			pa.Inputs = append(pa.Inputs, InputRef{View: in, Agg: countAgg[in]})
		}

		sigIdx := make(map[string]int, len(v.Aggs))
		for i, a := range v.Aggs {
			sig := a.Signature()
			if _, dup := sigIdx[sig]; !dup {
				sigIdx[sig] = i
			}
		}
		before := len(v.Aggs)
		idx := addAgg(v, sigIdx, pa)
		countAgg[v.ID] = idx
		if v.IsOutput() {
			v.Cols = append(v.Cols, OutputCol{Name: CountColName, Aggs: []int{idx}, Coefs: []float64{1}})
			countCol[v.ID] = len(v.Cols) - 1
		} else {
			// Internal views expose one column per aggregate; keep parallel.
			if idx == before {
				v.Cols = append(v.Cols, OutputCol{Name: CountColName, Aggs: []int{idx}, Coefs: []float64{1}})
			}
			countCol[v.ID] = idx
		}
	}
	return countCol
}
