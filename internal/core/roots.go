package core

import (
	"math"
	"math/big"
	"slices"
	"sort"
	"strconv"

	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/query"
)

// assignRoots picks a join-tree root node for every query in the batch
// (Find Roots, §3.3); see findRoots.
func assignRoots(t *jointree.Tree, queries []*query.Query, multiRoot bool) []int {
	return findRoots(t, queries, multiRoot).roots
}

// rootChoice is the outcome of Find Roots: every query's root and, with
// multiple roots, the paper's root and the modeled emissions at the root.
type rootChoice struct {
	roots []int
	paper []int     // nil with a single root
	emit  []float64 // nil with a single root
}

// findRoots picks the queries' roots. With multiRoot disabled, every query
// uses the node the paper's weight ranks first (paperRank: the one-pass
// bottom-up default, and the Figure 5 ablation).
//
// Otherwise the queries sharing a group-by set take one root. Each distinct
// set starts at its paper root, the best-ranked node holding one of its
// attributes (the first-ranked node for a scalar set), and a local search
// over the sets (rootModel.search) moves a set to the candidate root where
// the batch is cheapest to evaluate: a node holding one of its attributes,
// or any node for a scalar set. A set moves only on a strict decrease of
// the modeled total, so ties keep the paper's root. The model sees view
// keys, never aggregates: a batch gets the roots of its distinct group-by
// sets whatever aggregates its queries hold, and a batch repeated as a
// whole (a tree level's node batches) keeps them too, since the paper's
// ranking scales with it.
func findRoots(t *jointree.Tree, queries []*query.Query, multiRoot bool) rootChoice {
	rank := paperRank(t, queries)
	roots := make([]int, len(queries))
	if !multiRoot {
		for qi := range roots {
			roots[qi] = rank[0]
		}
		return rootChoice{roots: roots}
	}
	m := newRootModel(t, queries, rank)
	setRoots := m.search()
	c := rootChoice{roots: roots, paper: make([]int, len(queries)), emit: make([]float64, len(queries))}
	for qi, s := range m.setOf {
		c.roots[qi], c.paper[qi] = setRoots[s], m.start[s]
		c.emit[qi] = m.estimate(m.outs[s]).emit
	}
	return c
}

// paperRank ranks the join-tree nodes by the paper's weight (§3.3): each
// query spreads a unit of weight over the nodes in proportion to the share
// of its group-by attributes they hold (uniformly if it has none). Ties go
// to the larger relation, then to the lower ID. The weights are summed
// exactly, so a tie is decided by these rules and not by rounding, and a
// batch repeated k times ranks the nodes as the batch does.
func paperRank(t *jointree.Tree, queries []*query.Query) []int {
	n := len(t.Nodes)
	// held[i][l] sums the attributes node i holds over the queries grouping
	// by l attributes: node i's weight is scalars/n + Σ_l held[i][l]/l.
	var scalars int64
	held := make([][]int64, n)
	for _, q := range queries {
		l := len(q.GroupBy)
		if l == 0 {
			scalars++
			continue
		}
		for ni, node := range t.Nodes {
			if len(held[ni]) <= l {
				held[ni] = append(held[ni], make([]int64, l+1-len(held[ni]))...)
			}
			for _, g := range q.GroupBy {
				if node.HasAttr(g) {
					held[ni][l]++
				}
			}
		}
	}
	weight := make([]*big.Rat, n)
	for i := range weight {
		weight[i] = big.NewRat(scalars, int64(n))
		for l, c := range held[i] {
			if c != 0 {
				weight[i].Add(weight[i], big.NewRat(c, int64(l)))
			}
		}
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool {
		i, j := rank[a], rank[b]
		if c := weight[i].Cmp(weight[j]); c != 0 {
			return c > 0
		}
		if t.Nodes[i].Rel.Len() != t.Nodes[j].Rel.Len() {
			return t.Nodes[i].Rel.Len() > t.Nodes[j].Rel.Len()
		}
		return i < j
	})
	return rank
}

// holdsAny reports whether node holds one of the attributes gb, or gb is
// empty (a scalar group-by may be rooted anywhere).
func holdsAny(node *jointree.Node, gb []data.AttrID) bool {
	if len(gb) == 0 {
		return true
	}
	for _, a := range gb {
		if node.HasAttr(a) {
			return true
		}
	}
	return false
}

// rootModel is Find Roots' cost model. A group-by set rooted at r costs the
// rows its output emits at r plus the rows emitted building every view it
// needs toward r; a view needed by several sets is built, and paid for,
// once. Views are identified by their merge key (from, to, group-by), which
// childGroupBy derives as pushdown does.
//
// The estimates follow the trie scan. A view out of node n is emitted once
// per distinct prefix of n's attribute order that covers its own group-by
// attributes at n and the bind keys of its carried inputs (inputs whose
// group-by reaches beyond n), P(prefix) = min(|R_n|, Π DistinctCount), and
// each emission fans out over the carried inputs' entries per bind key: an
// input's rows over the larger of its own and n's distinct bind keys, the
// textbook join estimate. A view's row count is min(its emissions, Π domain
// sizes of its group-by).
// The attribute orders are attrOrders' choice for the paper's roots, fixed
// for the search, so every estimate is computed once.
type rootModel struct {
	t     *jointree.Tree
	adj   [][]int
	order [][]data.AttrID
	dom   map[data.AttrID]float64
	ids   map[string]int
	views []modelView
	// sets are the batch's distinct group-by sets, setOf[q] query q's, and
	// start[s] set s's paper root. ref[v] counts the sets currently needing
	// view v; outs[s] is set s's output view at its current root.
	sets  [][]data.AttrID
	setOf []int
	start []int
	ref   []int32
	outs  []int
	key   []byte
}

// modelView is one view key with its estimate.
type modelView struct {
	from, to int
	groupBy  []data.AttrID
	// inputs are the views flowing into from along its other edges; needs,
	// memoized for output views, every view below, transitively.
	inputs    []int
	needs     []int
	estimated bool
	emit      float64
	rows      float64
	cost      int64 // emit rounded up, saturated
}

// maxViewCost saturates a view's cost, so sums over a batch cannot
// overflow.
const maxViewCost = 1 << 50

// newRootModel builds the model for the batch with every group-by set at
// its paper root (rank is paperRank's) and fixes the attribute orders the
// estimates assume: attrOrders' order over the key sets the paper roots'
// views bind.
func newRootModel(t *jointree.Tree, queries []*query.Query, rank []int) *rootModel {
	m := &rootModel{t: t, adj: sortedAdj(t), dom: map[data.AttrID]float64{}, ids: map[string]int{},
		setOf: make([]int, len(queries))}
	index := map[string]int{}
	var key []byte
	for qi, q := range queries {
		gb := sortAttrs(slices.Clone(q.GroupBy))
		key = appendGroupBySig(key[:0], gb)
		s, ok := index[string(key)]
		if !ok {
			s = len(m.sets)
			index[string(key)] = s
			root := rank[0]
			for _, ni := range rank {
				if holdsAny(t.Nodes[ni], gb) {
					root = ni
					break
				}
			}
			m.sets, m.start = append(m.sets, gb), append(m.start, root)
			m.outs = append(m.outs, m.view(root, QueryTarget, gb))
			for _, v := range m.needs(m.outs[s]) {
				m.ref[v]++
			}
		}
		m.setOf[qi] = s
	}
	// Every view registered so far is one the paper roots need.
	bound := make([][][]data.AttrID, len(t.Nodes))
	for _, v := range m.views {
		node := t.Nodes[v.from]
		bound[v.from] = append(bound[v.from], m.boundAt(node, v.groupBy))
		for _, in := range v.inputs {
			bound[v.from] = append(bound[v.from], m.boundAt(node, m.views[in].groupBy))
		}
	}
	m.order = make([][]data.AttrID, len(t.Nodes))
	for n, node := range t.Nodes {
		m.order[n] = cheapestOrder(node.Rel, bound[n])
	}
	return m
}

// boundAt returns the attributes of gb that node holds.
func (m *rootModel) boundAt(node *jointree.Node, gb []data.AttrID) []data.AttrID {
	var out []data.AttrID
	for _, a := range gb {
		if node.HasAttr(a) {
			out = append(out, a)
		}
	}
	return out
}

// view returns the ID of the view key (from, to, gb), registering it and
// the views it reads on first use.
func (m *rootModel) view(from, to int, gb []data.AttrID) int {
	m.key = strconv.AppendInt(m.key[:0], int64(from), 10)
	m.key = strconv.AppendInt(append(m.key, '>'), int64(to), 10)
	m.key = appendGroupBySig(append(m.key, '|'), gb)
	if id, ok := m.ids[string(m.key)]; ok {
		return id
	}
	id := len(m.views)
	m.ids[string(m.key)] = id
	m.views = append(m.views, modelView{from: from, to: to, groupBy: gb})
	m.ref = append(m.ref, 0)
	var inputs []int
	for _, c := range m.adj[from] {
		if c != to {
			inputs = append(inputs, m.view(c, from, childGroupBy(m.t, from, c, gb)))
		}
	}
	m.views[id].inputs = inputs
	return id
}

// needs returns every view the output view out reads, transitively.
func (m *rootModel) needs(out int) []int {
	if m.views[out].needs == nil {
		needs := []int{}
		var walk func(int)
		walk = func(id int) {
			for _, in := range m.views[id].inputs {
				needs = append(needs, in)
				walk(in)
			}
		}
		walk(out)
		m.views[out].needs = needs
	}
	return m.views[out].needs
}

// estimate returns view id with its estimate computed.
func (m *rootModel) estimate(id int) *modelView {
	if v := &m.views[id]; v.estimated {
		return v
	}
	node := m.t.Nodes[m.views[id].from]
	bound := m.boundAt(node, m.views[id].groupBy)
	fanout := 1.0
	for _, in := range m.views[id].inputs {
		iv := m.estimate(in)
		bind := m.boundAt(node, iv.groupBy)
		if len(bind) == len(iv.groupBy) {
			continue
		}
		bound = append(bound, bind...)
		if iv.rows > 0 {
			fanout *= iv.rows / max(1, min(iv.rows, m.distinct(iv.from, bind)), m.distinct(iv.to, bind))
		} else {
			fanout = 0
		}
	}
	v := &m.views[id]
	v.emit = m.prefixes(v.from, sortAttrs(bound)) * fanout
	v.rows = min(v.emit, m.domains(v.groupBy))
	v.cost = int64(math.Ceil(min(v.emit, maxViewCost)))
	v.estimated = true
	return v
}

// distinct returns P(attrs) at node n: min(|R_n|, Π DistinctCount).
func (m *rootModel) distinct(n int, attrs []data.AttrID) float64 {
	rel := m.t.Nodes[n].Rel
	p := min(float64(rel.Len()), 1)
	for _, a := range attrs {
		p = min(float64(rel.Len()), p*float64(rel.DistinctCount(a)))
	}
	return p
}

// prefixes returns P of the shortest prefix of node n's order covering the
// sorted attributes set; a set the order does not cover is emitted once per
// row.
func (m *rootModel) prefixes(n int, set []data.AttrID) float64 {
	rel := m.t.Nodes[n].Rel
	rows := float64(rel.Len())
	p, left := min(rows, 1), len(set)
	for _, a := range m.order[n] {
		if left == 0 {
			break
		}
		p = min(rows, p*float64(rel.DistinctCount(a)))
		if containsAttr(set, a) {
			left--
		}
	}
	if left > 0 {
		return rows
	}
	return p
}

// domains returns the product of the attributes' domain sizes: for each,
// its smallest distinct count over the nodes holding it.
func (m *rootModel) domains(attrs []data.AttrID) float64 {
	p := 1.0
	for _, a := range attrs {
		d, ok := m.dom[a]
		if !ok {
			d = math.Inf(1)
			for _, node := range m.t.Nodes {
				if node.HasAttr(a) {
					d = min(d, float64(node.Rel.DistinctCount(a)))
				}
			}
			m.dom[a] = d
		}
		p *= d
	}
	return p
}

// search runs the local search from the start roots and returns each set's
// root. A pass offers every set, in batch order, each of its candidate
// roots in ID order and moves it to the one that lowers the modeled total
// most; passes repeat until none moves a set. Costs are integers, so every
// move strictly decreases a non-negative total and the search terminates.
func (m *rootModel) search() []int {
	for moved := true; moved; {
		moved = false
		for s, gb := range m.sets {
			cur := m.outs[s]
			best, bestD := cur, int64(0)
			for r, node := range m.t.Nodes {
				if r == m.views[cur].from || !holdsAny(node, gb) {
					continue
				}
				out := m.view(r, QueryTarget, gb)
				if d := m.delta(cur, out); d < bestD {
					best, bestD = out, d
				}
			}
			if best != cur {
				m.move(s, best)
				moved = true
			}
		}
	}
	roots := make([]int, len(m.sets))
	for s, out := range m.outs {
		roots[s] = m.views[out].from
	}
	return roots
}

// delta returns the change of the modeled total when a set's output view
// moves from from to to: the output's emissions, plus the views only to
// needs, minus the views only from needed.
func (m *rootModel) delta(from, to int) int64 {
	d := m.estimate(to).cost - m.estimate(from).cost
	needTo := m.needs(to)
	for _, v := range needTo {
		if m.ref[v] == 0 {
			d += m.estimate(v).cost
		}
	}
	for _, v := range m.needs(from) {
		if m.ref[v] == 1 && !slices.Contains(needTo, v) {
			d -= m.estimate(v).cost
		}
	}
	return d
}

// move roots set s at output view out.
func (m *rootModel) move(s, out int) {
	for _, v := range m.needs(m.outs[s]) {
		m.ref[v]--
	}
	for _, v := range m.needs(out) {
		m.ref[v]++
	}
	m.outs[s] = out
}

// containsAttr reports whether sorted ids contains a.
func containsAttr(ids []data.AttrID, a data.AttrID) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= a })
	return i < len(ids) && ids[i] == a
}
