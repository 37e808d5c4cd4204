package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/query"
)

// PlanOptions selects which logical optimizations apply; disabling them
// reproduces the ablation configurations of the paper's Figure 5.
type PlanOptions struct {
	// MultiRoot lets each query pick its own join-tree root (§3.3).
	MultiRoot bool
	// MultiOutput groups independent views out of the same node into one
	// shared scan (§3.5); disabled, each view is computed by its own scan.
	MultiOutput bool
	// TrackCounts appends a hidden tuple-count aggregate to every view
	// (output views gain a trailing CountColName column) so the incremental
	// maintenance layer can drop group-by keys whose join tuples have all
	// been deleted. See internal/ivm.
	TrackCounts bool
}

// Stats records the planner's consolidation numbers, matching the columns of
// the paper's Table 2.
type Stats struct {
	// RawViews is the pre-consolidation count: one view per aggregate per
	// join-tree edge (the paper's "814 aggregates × 4 edges = 3,256 views").
	RawViews int
	// Views is the number of merged directional views (paper column V).
	Views int
	// Groups is the number of view groups (paper column G).
	Groups int
	// AppAggregates is the number of application aggregates (paper A).
	AppAggregates int
	// IntermediateAggs counts additional product aggregates synthesized
	// across all views (paper I): total product aggregates minus A.
	IntermediateAggs int
}

// Plan is the fully optimized logical plan for a batch: the consolidated
// directional views, the query output views, and the grouped execution order.
type Plan struct {
	Tree *jointree.Tree
	// Queries is the planned batch: the first UserQueries entries are the
	// caller's queries (cloned with a hidden placeholder count aggregate
	// when a query has monoid aggregates but no sum aggregates), followed
	// by the internal support queries synthesized for monoid aggregates.
	Queries []*query.Query
	// UserQueries is the number of caller queries; Queries[UserQueries:]
	// are internal support queries.
	UserQueries int
	// Monoids[i] is user query i's monoid plan, nil for pure sum-product
	// queries (always nil for support-query indexes).
	Monoids []*MonoidSpec
	Roots   []int
	// PaperRoots[q] is the root the paper's weight ranking picks for query
	// q, where Find Roots' cost model starts (Roots differs from it where
	// the model found a cheaper root), and RootEmissions[q] the model's
	// estimate of the rows q's output emits at Roots[q]. Both are nil
	// without MultiRoot.
	PaperRoots    []int
	RootEmissions []float64
	// Views lists merged internal views followed by one output view per
	// query; IDs equal slice positions.
	Views []*View
	// OutputView[i] is the view ID delivering queries[i]'s result.
	OutputView []int
	Groups     []*Group
	// GroupDeps[g] lists the group IDs that must finish before group g.
	// A group may depend only on earlier groups (lower IDs): groupViews
	// numbers groups wave by wave, and the engine rejects any other graph.
	GroupDeps [][]int
	// Provenance[v] holds the sorted join-tree node IDs whose base
	// relations feed view v (all nodes for output views). A delta against
	// node p's relation dirties exactly the views with p in Provenance.
	Provenance [][]int
	// CountCol[v] is the column of view v holding its hidden tuple count,
	// or nil when the plan was built without TrackCounts.
	CountCol []int
	// ConsumerKeys[v] lists, for internal view v, the group-by attributes
	// shared with its consuming node's schema (ascending) — the join key the
	// view binds on during the consumer's scans, and hence the indexable
	// attributes for semi-join-restricted maintenance (internal/ivm). Empty
	// for output views and for views binding on no attributes (scalar
	// inputs).
	ConsumerKeys [][]data.AttrID
	// AttrOrder[n] is the join-attribute order of node n's scans, chosen
	// by cost (attrOrders): every scan at n, of a plan group or of a
	// maintenance kernel's sub-group, orders its attributes by the
	// restriction of AttrOrder[n] to them (GroupOrder). Fixed at planning
	// time, it does not follow statistics that move under deltas.
	AttrOrder [][]data.AttrID
	Stats     Stats
}

// BuildPlan runs the logical layers — Find Roots, Aggregate Pushdown, Merge
// Views, Group Views — over the batch.
func BuildPlan(t *jointree.Tree, queries []*query.Query, opts PlanOptions) (*Plan, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	userCount := len(queries)
	queries, monoids, err := expandMonoids(queries)
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := q.Validate(t.DB); err != nil {
			return nil, err
		}
	}
	roots := findRoots(t, queries, opts.MultiRoot)
	raw, outputs, rawCount, err := pushdown(t, queries, roots.roots)
	if err != nil {
		return nil, err
	}
	views := mergeViews(raw, outputs)
	var countCol []int
	if opts.TrackCounts {
		countCol = addCountAggs(t, views)
	}
	groups, deps, err := groupViews(views, opts.MultiOutput)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		Tree:          t,
		Queries:       queries,
		UserQueries:   userCount,
		Monoids:       append(monoids, make([]*MonoidSpec, len(queries)-userCount)...),
		Roots:         roots.roots,
		PaperRoots:    roots.paper,
		RootEmissions: roots.emit,
		Views:         views,
		OutputView:    make([]int, len(queries)),
		Groups:        groups,
		GroupDeps:     deps,
		Provenance:    computeProvenance(t, views),
		CountCol:      countCol,
		ConsumerKeys:  computeConsumerKeys(t, views),
	}
	p.AttrOrder = p.attrOrders()
	totalAggs := 0
	for _, v := range views {
		totalAggs += len(v.Aggs)
		if v.IsOutput() {
			p.OutputView[v.Query] = v.ID
		} else {
			p.Stats.Views++
		}
	}
	for qi, q := range queries[:userCount] {
		n := len(q.Aggs)
		if p.Monoids[qi] != nil && p.Monoids[qi].Placeholder {
			n = 0
		}
		p.Stats.AppAggregates += n + len(q.MonoidAggs)
	}
	p.Stats.RawViews = rawCount
	p.Stats.Groups = len(groups)
	p.Stats.IntermediateAggs = totalAggs - p.Stats.AppAggregates
	if p.Stats.IntermediateAggs < 0 {
		p.Stats.IntermediateAggs = 0
	}
	return p, nil
}
