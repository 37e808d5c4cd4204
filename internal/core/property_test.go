package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

// Property: planning is deterministic — building the same plan twice yields
// identical view structures, groups and statistics.
func TestPlanDeterminism(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		_, tree, attrs := chain(t, 4, 15, int64(300+trial))
		rng := rand.New(rand.NewSource(int64(trial)))
		var qs []*query.Query
		for qi := 0; qi < 1+rng.Intn(4); qi++ {
			var gb []data.AttrID
			for _, a := range attrs[1:] {
				if rng.Intn(2) == 0 {
					gb = append(gb, a)
				}
			}
			qs = append(qs, query.NewQuery(fmt.Sprintf("q%d", qi), gb,
				query.CountAgg(), query.SumProdAgg(attrs[1], attrs[3])))
		}
		p1, err := BuildPlan(tree, qs, PlanOptions{MultiRoot: true, MultiOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := BuildPlan(tree, qs, PlanOptions{MultiRoot: true, MultiOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if p1.Stats != p2.Stats {
			t.Fatalf("stats differ: %+v vs %+v", p1.Stats, p2.Stats)
		}
		if len(p1.Views) != len(p2.Views) {
			t.Fatalf("view counts differ")
		}
		for i := range p1.Views {
			a, b := p1.Views[i], p2.Views[i]
			if a.From != b.From || a.To != b.To || len(a.Aggs) != len(b.Aggs) ||
				!slices.Equal(a.GroupBy, b.GroupBy) {
				t.Fatalf("view %d differs", i)
			}
			for j := range a.Aggs {
				if a.Aggs[j].Signature() != b.Aggs[j].Signature() {
					t.Fatalf("view %d agg %d differs", i, j)
				}
			}
		}
	}
}

// Property: every non-output view's group-by contains its edge's join
// attributes (the consumer key can never be empty on a connected tree), and
// carried attributes always belong to the originating query group-bys.
func TestViewGroupByInvariants(t *testing.T) {
	_, tree, attrs := chain(t, 5, 15, 23)
	qs := []*query.Query{
		query.NewQuery("span", []data.AttrID{attrs[1], attrs[5]}, query.CountAgg()),
		query.NewQuery("mid", []data.AttrID{attrs[3]}, query.CountAgg()),
		query.NewQuery("scalar", nil, query.CountAgg()),
	}
	p, err := BuildPlan(tree, qs, PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	allGroupBys := map[data.AttrID]bool{}
	for _, q := range qs {
		for _, g := range q.GroupBy {
			allGroupBys[g] = true
		}
	}
	for _, v := range p.Views {
		if v.IsOutput() {
			continue
		}
		join := tree.PathAttrs(v.From, v.To)
		for _, a := range join {
			if !containsAttr(v.GroupBy, a) {
				t.Errorf("view %d missing join attribute %d", v.ID, a)
			}
		}
		// Every non-join group-by attribute must be a query group-by
		// (carried attribute).
		joinSet := map[data.AttrID]bool{}
		for _, a := range join {
			joinSet[a] = true
		}
		for _, g := range v.GroupBy {
			if !joinSet[g] && !allGroupBys[g] {
				t.Errorf("view %d carries non-query attribute %d", v.ID, g)
			}
		}
	}
}

// Property: merged views never contain two aggregates with the same
// structural signature.
func TestMergedAggregatesDistinct(t *testing.T) {
	_, tree, attrs := chain(t, 4, 15, 29)
	var qs []*query.Query
	// Deliberately redundant batch.
	for i := 0; i < 5; i++ {
		qs = append(qs, query.NewQuery(fmt.Sprintf("q%d", i),
			[]data.AttrID{attrs[2]}, query.CountAgg(), query.SumAgg(attrs[1])))
	}
	p, err := BuildPlan(tree, qs, PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Views {
		seen := map[string]bool{}
		for _, a := range v.Aggs {
			sig := a.Signature()
			if seen[sig] {
				t.Fatalf("view %d holds duplicate aggregate %q", v.ID, sig)
			}
			seen[sig] = true
		}
	}
	// Redundant queries add no views beyond the first query's.
	single, err := BuildPlan(tree, qs[:1], PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Views != single.Stats.Views {
		t.Fatalf("redundant queries grew views: %d vs %d", p.Stats.Views, single.Stats.Views)
	}
}
