package core

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/monoid"
	"repro/internal/query"
)

// Generalized (monoid) aggregates compile to support views. A MIN, MAX,
// COUNT DISTINCT or top-k column over attribute x depends only on the
// SUPPORT of each group — the set of x values present among the group's
// joining tuples — because every shipped monoid instance is idempotent.
// The planner therefore rewrites each monoid aggregate into an internal
// support query
//
//	__support(GroupBy ∪ {x}; SUM 1)
//
// appended to the batch: a plain count query the whole existing stack
// (pushdown, view merging, hidden counts, semi-join-restricted delta
// maintenance, compiled kernels, sharded merging, WAL checkpoints)
// maintains with no new machinery. The evaluation layer (internal/moo)
// folds the monoid over each group's surviving support rows to assemble the
// user-visible columns; a delete that shrinks a group's support triggers a
// re-fold of exactly the affected groups.

// MonoidCol describes one generalized aggregate column group of a user
// query after planning: the resolved monoid instance plus the layout of its
// support view.
type MonoidCol struct {
	// Agg is the query-level aggregate this column group implements.
	Agg query.MonoidAgg
	// M is the resolved monoid instance.
	M monoid.Monoid
	// Support is the plan query index (>= Plan.UserQueries) of the support
	// query whose output view carries this column's per-(group, value)
	// counts.
	Support int
	// ValPos is the position of the folded attribute within the support
	// view's group-by key.
	ValPos int
	// KeyPos maps each position of the user query's output key to its
	// position within the support view's key (the group projection used
	// when scanning support rows).
	KeyPos []int
	// Width is the number of finalized output columns (M.Width()).
	Width int
}

// MonoidSpec is the per-user-query monoid plan: nil in Plan.Monoids for
// pure sum-product queries.
type MonoidSpec struct {
	// SumCols is the number of user-visible sum-aggregate columns preceding
	// the monoid columns (0 when Placeholder).
	SumCols int
	// Placeholder reports that the user query had no sum aggregates, so the
	// planner injected a hidden SUM 1 placeholder: a query must own at
	// least one semiring aggregate for its output view (and hidden count)
	// to exist. The placeholder column is dropped from the assembled
	// user-visible view.
	Placeholder bool
	// Cols lists the monoid column groups in declaration order; their
	// finalized columns follow the SumCols sum columns.
	Cols []MonoidCol
}

// expandMonoids rewrites a user batch for planning: queries with monoid
// aggregates are cloned (gaining a placeholder count aggregate when they
// have no sum aggregates), and one deduplicated support query per distinct
// (group-by set, attribute) pair is appended after all user queries.
// Support query names are deterministic, preserving the deterministic-plan
// contract WAL recovery relies on (see moo.Engine.PlanBatch).
func expandMonoids(queries []*query.Query) ([]*query.Query, []*MonoidSpec, error) {
	user := len(queries)
	out := make([]*query.Query, 0, user)
	specs := make([]*MonoidSpec, user)
	type skey struct {
		gb   string
		attr data.AttrID
	}
	supportIdx := make(map[skey]int)
	var supports []*query.Query
	for qi, q := range queries {
		if len(q.MonoidAggs) == 0 {
			out = append(out, q)
			continue
		}
		clone := *q
		spec := &MonoidSpec{SumCols: len(q.Aggs)}
		if len(q.Aggs) == 0 {
			clone.Aggs = []query.Aggregate{query.CountAgg()}
			spec.Placeholder = true
			spec.SumCols = 0
		}
		outKeys := sortAttrs(append([]data.AttrID(nil), q.GroupBy...))
		for _, m := range q.MonoidAggs {
			inst, err := m.Instance()
			if err != nil {
				return nil, nil, fmt.Errorf("core: query %q: %w", q.Name, err)
			}
			sq := query.NewQuery("", append(append([]data.AttrID(nil), q.GroupBy...), m.Attr), query.CountAgg())
			key := skey{gb: attrsKey(sq.GroupBy), attr: m.Attr}
			si, ok := supportIdx[key]
			if !ok {
				si = user + len(supports)
				sq.Name = supportName(sq.GroupBy, m.Attr)
				supports = append(supports, sq)
				supportIdx[key] = si
			}
			col := MonoidCol{
				Agg:     m,
				M:       inst,
				Support: si,
				ValPos:  attrPos(sq.GroupBy, m.Attr),
				KeyPos:  make([]int, len(outKeys)),
				Width:   m.Width(),
			}
			for i, a := range outKeys {
				col.KeyPos[i] = attrPos(sq.GroupBy, a)
			}
			spec.Cols = append(spec.Cols, col)
		}
		out = append(out, &clone)
		specs[qi] = spec
	}
	return append(out, supports...), specs, nil
}

func attrsKey(attrs []data.AttrID) string {
	var b strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&b, "%d,", a)
	}
	return b.String()
}

func supportName(groupBy []data.AttrID, attr data.AttrID) string {
	parts := make([]string, len(groupBy))
	for i, a := range groupBy {
		parts[i] = fmt.Sprint(a)
	}
	return fmt.Sprintf("__support_g%s_x%d", strings.Join(parts, "_"), attr)
}

func attrPos(attrs []data.AttrID, a data.AttrID) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// VisibleCols is the number of user-visible output columns of query qi:
// its sum-aggregate columns followed by its monoid columns' widths. For
// internal support queries it is the support view's single count column.
func (p *Plan) VisibleCols(qi int) int {
	if qi < 0 || qi >= len(p.Queries) {
		return 0
	}
	spec := p.Monoids[qi]
	if spec == nil {
		return len(p.Queries[qi].Aggs)
	}
	n := spec.SumCols
	for _, c := range spec.Cols {
		n += c.Width
	}
	return n
}
