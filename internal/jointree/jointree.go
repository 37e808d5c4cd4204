// Package jointree builds join trees over database schemas (paper §3.1).
//
// An acyclic schema admits a join tree: an undirected tree over the relations
// such that for every pair of nodes, their shared attributes appear in every
// node on the path between them (the running-intersection property). Cyclic
// schemas are handled as in the paper: "we first compute a hypertree
// decomposition and materialize its bags (cycles) to obtain a join tree".
package jointree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/data"
)

// Node is one join-tree node: a base relation or a materialized bag.
type Node struct {
	ID    int
	Rel   *data.Relation
	Attrs []data.AttrID // sorted schema of Rel
	// Members lists the base-relation names folded into this node: the
	// relation's own name for plain nodes, the merged relations for
	// materialized hypertree bags. The maintenance layer uses it to route a
	// delta against a bag member to the bag node (see Tree.NodeByMember).
	Members []string
}

// IsBag reports whether the node is a materialized hypertree bag (holds the
// join of two or more base relations).
func (n *Node) IsBag() bool { return len(n.Members) > 1 }

// HasAttr reports whether the node's schema contains id.
func (n *Node) HasAttr(id data.AttrID) bool {
	i := sort.Search(len(n.Attrs), func(i int) bool { return n.Attrs[i] >= id })
	return i < len(n.Attrs) && n.Attrs[i] == id
}

// Tree is a join tree over a database.
type Tree struct {
	DB    *data.Database
	Nodes []*Node
	// Adj[u] lists the neighbor node IDs of u.
	Adj [][]int

	// below memoizes, per directed edge (from→to), the union of schemas of
	// all nodes on the `from` side when the edge is removed.
	below map[[2]int][]data.AttrID
}

// Edge is an undirected join-tree edge (Lo < Hi).
type Edge struct{ Lo, Hi int }

// Option configures tree construction.
type Option func(*config)

type config struct {
	maxBagRows int
}

// WithMaxBagRows caps the size of materialized hypertree bags; exceeding it
// is an error rather than an OOM. Default 50M rows.
func WithMaxBagRows(n int) Option { return func(c *config) { c.maxBagRows = n } }

// Build constructs a join tree over all relations of db. If the schema
// hypergraph is cyclic, overlapping relations are greedily merged and
// materialized into bags until the schema becomes acyclic.
func Build(db *data.Database, opts ...Option) (*Tree, error) {
	cfg := config{maxBagRows: 50_000_000}
	for _, o := range opts {
		o(&cfg)
	}
	rels := append([]*data.Relation(nil), db.Relations()...)
	if len(rels) == 0 {
		return nil, fmt.Errorf("jointree: database has no relations")
	}
	members := make([][]string, len(rels))
	for i, r := range rels {
		members[i] = []string{r.Name}
	}

	// Merge bags until the hypergraph is acyclic.
	for !Acyclic(schemas(rels)) {
		i, j := bestMergePair(rels)
		if i < 0 {
			return nil, fmt.Errorf("jointree: cannot decompose cyclic schema")
		}
		bag, err := NaturalJoin(db, rels[i], rels[j], fmt.Sprintf("bag(%s,%s)", rels[i].Name, rels[j].Name))
		if err != nil {
			return nil, fmt.Errorf("jointree: materializing bag: %w", err)
		}
		if bag.Len() > cfg.maxBagRows {
			return nil, fmt.Errorf("jointree: bag %q has %d rows, exceeding cap %d",
				bag.Name, bag.Len(), cfg.maxBagRows)
		}
		rels[i] = bag
		members[i] = append(members[i], members[j]...)
		rels = append(rels[:j], rels[j+1:]...)
		members = append(members[:j], members[j+1:]...)
	}

	// A relation whose schema is contained in another contributes no join
	// structure of its own but must still be a tree node (it filters and
	// aggregates); containment only matters for the GYO test above.
	t := &Tree{DB: db, below: make(map[[2]int][]data.AttrID)}
	for i, r := range rels {
		t.Nodes = append(t.Nodes, &Node{ID: i, Rel: r, Attrs: sortedSchema(r), Members: members[i]})
	}
	t.Adj = make([][]int, len(t.Nodes))
	if err := t.spanningTree(); err != nil {
		return nil, err
	}
	if err := t.VerifyRunningIntersection(); err != nil {
		return nil, fmt.Errorf("jointree: constructed tree invalid: %w", err)
	}
	return t, nil
}

// spanningTree connects nodes via a maximum-weight spanning tree where the
// weight of an edge is the number of shared attributes. For acyclic schemas
// this yields a valid join tree (Bernstein–Goodman). Disconnected schemas
// (cross products) are connected by zero-weight edges.
func (t *Tree) spanningTree() error {
	n := len(t.Nodes)
	if n == 1 {
		return nil
	}
	type cand struct {
		w    int
		u, v int
	}
	var cands []cand
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := len(intersect(t.Nodes[u].Attrs, t.Nodes[v].Attrs))
			cands = append(cands, cand{w, u, v})
		}
	}
	// Stable max-weight order; ties broken by smaller node IDs for
	// deterministic trees.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].w > cands[j].w })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	added := 0
	for _, c := range cands {
		ru, rv := find(c.u), find(c.v)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		t.Adj[c.u] = append(t.Adj[c.u], c.v)
		t.Adj[c.v] = append(t.Adj[c.v], c.u)
		added++
		if added == n-1 {
			break
		}
	}
	if added != n-1 {
		return fmt.Errorf("jointree: failed to connect %d nodes", n)
	}
	return nil
}

// Edges returns the undirected edges (Lo < Hi), sorted.
func (t *Tree) Edges() []Edge {
	var out []Edge
	for u, ns := range t.Adj {
		for _, v := range ns {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	return out
}

// NodeByRelation returns the node holding the named relation, or nil.
func (t *Tree) NodeByRelation(name string) *Node {
	for _, n := range t.Nodes {
		if n.Rel.Name == name {
			return n
		}
	}
	return nil
}

// NodeByMember returns the node whose member set contains the named base
// relation: the relation's own node, or the materialized bag it was folded
// into. Nil when the name is neither a node relation nor a bag member (trees
// whose nodes were constructed without member metadata fall back to
// NodeByRelation semantics).
func (t *Tree) NodeByMember(name string) *Node {
	for _, n := range t.Nodes {
		if n.Rel.Name == name {
			return n
		}
		for _, m := range n.Members {
			if m == name {
				return n
			}
		}
	}
	return nil
}

// AttrsBelow returns the union of node schemas in the component containing
// `from` when edge (from,to) is removed — ω_T in the paper's view
// definitions. Results are memoized; the returned slice must not be mutated.
func (t *Tree) AttrsBelow(from, to int) []data.AttrID {
	key := [2]int{from, to}
	if got, ok := t.below[key]; ok {
		return got
	}
	set := make(map[data.AttrID]struct{})
	var dfs func(u, block int)
	dfs = func(u, block int) {
		for _, a := range t.Nodes[u].Attrs {
			set[a] = struct{}{}
		}
		for _, v := range t.Adj[u] {
			if v != block {
				dfs(v, u)
			}
		}
	}
	dfs(from, to)
	out := make([]data.AttrID, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	t.below[key] = out
	return out
}

// PathAttrs returns the shared attributes ω_u ∩ ω_v for an edge.
func (t *Tree) PathAttrs(u, v int) []data.AttrID {
	return intersect(t.Nodes[u].Attrs, t.Nodes[v].Attrs)
}

// VerifyRunningIntersection checks the join-tree property: for every pair of
// nodes, shared attributes appear on every node along the connecting path.
func (t *Tree) VerifyRunningIntersection() error {
	n := len(t.Nodes)
	// parentOf computes the BFS parents from a root.
	parentOf := func(root int) []int {
		par := make([]int, n)
		for i := range par {
			par[i] = -1
		}
		par[root] = root
		queue := []int{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.Adj[u] {
				if par[v] == -1 {
					par[v] = u
					queue = append(queue, v)
				}
			}
		}
		return par
	}
	for u := 0; u < n; u++ {
		par := parentOf(u)
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if par[v] == -1 {
				return fmt.Errorf("nodes %d and %d disconnected", u, v)
			}
			shared := intersect(t.Nodes[u].Attrs, t.Nodes[v].Attrs)
			for w := par[v]; w != u; w = par[w] {
				for _, a := range shared {
					if !t.Nodes[w].HasAttr(a) {
						return fmt.Errorf("attribute %d shared by nodes %d,%d missing from path node %d",
							a, u, v, w)
					}
				}
			}
		}
	}
	return nil
}

// String renders the tree in indented form for debugging, rooted at node 0.
func (t *Tree) String() string {
	var b strings.Builder
	var dfs func(u, from, depth int)
	dfs = func(u, from, depth int) {
		fmt.Fprintf(&b, "%s%s(%s)\n", strings.Repeat("  ", depth),
			t.Nodes[u].Rel.Name, strings.Join(t.DB.AttrNames(t.Nodes[u].Attrs), ","))
		for _, v := range t.Adj[u] {
			if v != from {
				dfs(v, u, depth+1)
			}
		}
	}
	if len(t.Nodes) > 0 {
		dfs(0, -1, 0)
	}
	return b.String()
}

func schemas(rels []*data.Relation) [][]data.AttrID {
	out := make([][]data.AttrID, len(rels))
	for i, r := range rels {
		out[i] = sortedSchema(r)
	}
	return out
}

func sortedSchema(r *data.Relation) []data.AttrID {
	s := append([]data.AttrID(nil), r.Attrs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func intersect(a, b []data.AttrID) []data.AttrID {
	var out []data.AttrID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// bestMergePair picks the pair of relations with maximal schema overlap (≥1)
// to merge into a bag; (-1,-1) if no relations overlap.
func bestMergePair(rels []*data.Relation) (int, int) {
	bi, bj, best := -1, -1, 0
	ss := schemas(rels)
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			w := len(intersect(ss[i], ss[j]))
			if w > best {
				best, bi, bj = w, i, j
			}
		}
	}
	return bi, bj
}
