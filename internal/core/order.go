package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/data"
)

// maxOrderAttrs bounds the exact order search: the DP visits 2^L attribute
// subsets, so a node with more order attributes keeps the domain-size order.
const maxOrderAttrs = 16

// keySets calls fn with every attribute set the given views bind at node:
// each view's group-by ∩ node schema and each input view's consumer key.
// Sets may repeat and may be empty.
func (p *Plan) keySets(node int, views []int, fn func([]data.AttrID)) {
	n := p.Tree.Nodes[node]
	var gb []data.AttrID
	for _, vid := range views {
		v := p.Views[vid]
		gb = gb[:0]
		for _, a := range v.GroupBy {
			if n.HasAttr(a) {
				gb = append(gb, a)
			}
		}
		fn(gb)
		for _, in := range v.InputViews() {
			fn(p.ConsumerKeys[in])
		}
	}
}

// GroupOrder returns the join-attribute order of a scan computing views out
// of node g.Node: the node's order, AttrOrder[g.Node], restricted to the
// attributes g's views bind. Every scan at a node — a Run group or a
// maintenance kernel's sub-group — thus visits rows in one order.
func (p *Plan) GroupOrder(g *Group) []data.AttrID {
	used := map[data.AttrID]bool{}
	p.keySets(g.Node, g.Views, func(k []data.AttrID) {
		for _, a := range k {
			used[a] = true
		}
	})
	var order []data.AttrID
	for _, a := range p.AttrOrder[g.Node] {
		if used[a] {
			order = append(order, a)
		}
	}
	return order
}

// attrOrders picks one join-attribute order per join-tree node (paper §3.5,
// step 1 of the multi-output plan) by cost. A scan pays per trie prefix at
// every depth, and a view registered at depth d — an input bound on its
// consumer key, an output emitted at its deepest group-by attribute — is
// bound or emitted once per depth-d prefix. With P(S) = min(|R|,
// Π_{a∈S} DistinctCount(a)) the estimated number of distinct prefixes over
// the attribute set S, an order costs Σ_d P(first d attributes) plus, for
// each distinct key set K bound at the node, P(shortest prefix ⊇ K). The
// order attributes are the union of those key sets.
func (p *Plan) attrOrders() [][]data.AttrID {
	from := make([][]int, len(p.Tree.Nodes))
	for _, v := range p.Views {
		from[v.From] = append(from[v.From], v.ID)
	}
	orders := make([][]data.AttrID, len(p.Tree.Nodes))
	for nid := range p.Tree.Nodes {
		orders[nid] = p.nodeOrder(nid, from[nid])
	}
	return orders
}

// nodeOrder returns the cheapest order of the attributes the given views
// bind at node.
func (p *Plan) nodeOrder(node int, views []int) []data.AttrID {
	var sets [][]data.AttrID
	p.keySets(node, views, func(k []data.AttrID) {
		sets = append(sets, slices.Clone(k))
	})
	return cheapestOrder(p.Tree.Nodes[node].Rel, sets)
}

// cheapestOrder returns the cheapest order over rel of the union of the
// attribute sets bound at its node (attrOrders' cost).
func cheapestOrder(rel *data.Relation, sets [][]data.AttrID) []data.AttrID {
	var attrs []data.AttrID
	for _, k := range sets {
		attrs = append(attrs, k...)
	}
	// Rank by increasing domain size, ties by ID: the candidate order and
	// the tie-break of the search.
	attrs = sortAttrs(attrs)
	slices.SortStableFunc(attrs, func(a, b data.AttrID) int {
		return cmp.Compare(rel.DistinctCount(a), rel.DistinctCount(b))
	})
	dist := make([]int64, len(attrs))
	rank := make(map[data.AttrID]int, len(attrs))
	for i, a := range attrs {
		rank[a], dist[i] = i, int64(rel.DistinctCount(a))
	}
	// The distinct non-empty key sets as bit sets over the ranks (unused
	// above maxOrderAttrs).
	var keys []uint32
	for _, s := range sets {
		var k uint32
		for _, a := range s {
			k |= 1 << rank[a]
		}
		if k != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	order := make([]data.AttrID, len(attrs))
	for d, i := range bestOrder(dist, int64(rel.Len()), keys) {
		order[d] = attrs[i]
	}
	return order
}

// bestOrder returns the cheapest order of attributes 0..L-1 (ranked by
// increasing domain size; dist[i] is attribute i's distinct count) over a
// relation of rows rows, binding the attribute sets keys (bit i is attribute
// i). Among equally cheap orders it returns the lexicographically smallest,
// so the domain-size order 0, 1, …, L-1 wins every tie it is part of. Above
// maxOrderAttrs it returns the domain-size order unsearched.
//
// Adding attribute a to the placed set S' = S \ {a} opens P(S) prefixes and
// completes every key set K with a ∈ K ⊆ S, so that step costs
// P(S)·(1 + #{K : a ∈ K ⊆ S}); an exact DP over subsets finds the cheapest
// completion of each placed set.
func bestOrder(dist []int64, rows int64, keys []uint32) []int {
	L := len(dist)
	order := make([]int, L)
	for i := range order {
		order[i] = i
	}
	if L > maxOrderAttrs {
		return order
	}
	full := uint32(1)<<L - 1
	// prefixes[s] is P(s), built up from s without its lowest attribute.
	prefixes := make([]int64, full+1)
	prefixes[0] = min(rows, 1)
	for s := uint32(1); s <= full; s++ {
		p, d := prefixes[s&(s-1)], dist[bits.TrailingZeros32(s)]
		if d != 0 && p > rows/d {
			prefixes[s] = rows
		} else {
			prefixes[s] = min(rows, p*d)
		}
	}
	step := func(s uint32, a int) int64 {
		n := int64(1)
		for _, k := range keys {
			if k&(1<<a) != 0 && k&^s == 0 {
				n++
			}
		}
		return prefixes[s] * n
	}
	// rest[s] is the cheapest cost of placing the attributes outside s once
	// those in s lead the order.
	rest := make([]int64, full+1)
	for s := full - 1; s != ^uint32(0); s-- {
		best := int64(-1)
		for a := 0; a < L; a++ {
			if s&(1<<a) == 0 {
				t := s | 1<<a
				if c := step(t, a) + rest[t]; best < 0 || c < best {
					best = c
				}
			}
		}
		rest[s] = best
	}
	s := uint32(0)
	for d := range order {
		for a := 0; a < L; a++ {
			if t := s | 1<<a; s&(1<<a) == 0 && step(t, a)+rest[t] == rest[s] {
				order[d], s = a, t
				break
			}
		}
	}
	return order
}
