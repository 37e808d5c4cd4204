package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Describe renders the optimized plan in the style of the paper's Figure 3:
// the query roots (with the root cost model's estimate of the rows each
// output emits, and the paper's root where the model chose another), the
// directional views along each join-tree edge with their aggregate counts,
// the view groups with their join-attribute orders (each attribute with its
// distinct count), and the group dependency graph. It is the engine's
// EXPLAIN output.
func (p *Plan) Describe() string {
	db := p.Tree.DB
	var b strings.Builder

	fmt.Fprintf(&b, "batch: %d queries, %d application aggregates (+%d intermediates)\n",
		len(p.Queries), p.Stats.AppAggregates, p.Stats.IntermediateAggs)
	fmt.Fprintf(&b, "views: %d directional (from %d per-aggregate-per-edge), %d groups\n",
		p.Stats.Views, p.Stats.RawViews, p.Stats.Groups)

	b.WriteString("\nroots:\n")
	for qi, q := range p.Queries {
		fmt.Fprintf(&b, "  %-24s → %s", q.Name, p.Tree.Nodes[p.Roots[qi]].Rel.Name)
		if len(q.GroupBy) > 0 {
			fmt.Fprintf(&b, "  group-by (%s)", strings.Join(db.AttrNames(q.GroupBy), ", "))
		}
		if p.RootEmissions != nil {
			fmt.Fprintf(&b, "  emits ~%.0f", p.RootEmissions[qi])
			if paper := p.PaperRoots[qi]; paper != p.Roots[qi] {
				fmt.Fprintf(&b, " (paper root %s)", p.Tree.Nodes[paper].Rel.Name)
			}
		}
		b.WriteString("\n")
	}

	b.WriteString("\ndirectional views:\n")
	type edgeKey struct{ from, to int }
	byEdge := map[edgeKey][]*View{}
	var edges []edgeKey
	for _, v := range p.Views {
		if v.IsOutput() {
			continue
		}
		k := edgeKey{v.From, v.To}
		if _, ok := byEdge[k]; !ok {
			edges = append(edges, k)
		}
		byEdge[k] = append(byEdge[k], v)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		views := byEdge[e]
		aggs := 0
		for _, v := range views {
			aggs += len(v.Aggs)
		}
		fmt.Fprintf(&b, "  %s → %s: %d view(s), %d aggregates\n",
			p.Tree.Nodes[e.from].Rel.Name, p.Tree.Nodes[e.to].Rel.Name, len(views), aggs)
		for _, v := range views {
			fmt.Fprintf(&b, "    V%d(%s; %d aggs)\n",
				v.ID, strings.Join(db.AttrNames(v.GroupBy), ","), len(v.Aggs))
		}
	}

	b.WriteString("\ngroups (dependency order):\n")
	for _, g := range p.Groups {
		var members []string
		for _, vid := range g.Views {
			v := p.Views[vid]
			if v.IsOutput() {
				members = append(members, fmt.Sprintf("Q[%s]", p.Queries[v.Query].Name))
			} else {
				members = append(members, fmt.Sprintf("V%d", v.ID))
			}
		}
		fmt.Fprintf(&b, "  group %d @ %-16s {%s}", g.ID,
			p.Tree.Nodes[g.Node].Rel.Name, strings.Join(members, ", "))
		if len(p.GroupDeps[g.ID]) > 0 {
			deps := make([]string, len(p.GroupDeps[g.ID]))
			for i, d := range p.GroupDeps[g.ID] {
				deps[i] = fmt.Sprint(d)
			}
			fmt.Fprintf(&b, "  after {%s}", strings.Join(deps, ","))
		}
		b.WriteString("\n")
		if order := p.GroupOrder(g); len(order) > 0 {
			rel := p.Tree.Nodes[g.Node].Rel
			attrs := db.AttrNames(order)
			for i, a := range order {
				attrs[i] += ":" + strconv.Itoa(rel.DistinctCount(a))
			}
			fmt.Fprintf(&b, "      order (%s)\n", strings.Join(attrs, ", "))
		}
	}
	return b.String()
}
