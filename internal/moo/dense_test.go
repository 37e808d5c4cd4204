package moo

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/query"
)

// favoritaGroupBy returns the favorita dataset at scale 0.0005 with the
// pairwise mutual-information and data-cube batches (built here, since
// internal/workloads imports this package).
func favoritaGroupBy(t *testing.T) (*datagen.Dataset, map[string][]*query.Query) {
	t.Helper()
	ds, err := datagen.Favorita(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		t.Fatal(err)
	}
	mi := []*query.Query{query.NewQuery("mi_total", nil, query.CountAgg())}
	for i, a := range ds.MIAttrs {
		mi = append(mi, query.NewQuery(fmt.Sprintf("mi_%d", a), []data.AttrID{a}, query.CountAgg()))
		for _, b := range ds.MIAttrs[i+1:] {
			mi = append(mi, query.NewQuery(fmt.Sprintf("mi_%d_%d", a, b), []data.AttrID{a, b}, query.CountAgg()))
		}
	}
	var cube []*query.Query
	for mask := 0; mask < 1<<len(ds.CubeDims); mask++ {
		var gb []data.AttrID
		for b, d := range ds.CubeDims {
			if mask&(1<<b) != 0 {
				gb = append(gb, d)
			}
		}
		aggs := []query.Aggregate{query.CountAgg()}
		for _, m := range ds.CubeMeasures {
			aggs = append(aggs, query.SumAgg(m))
		}
		cube = append(cube, query.NewQuery(fmt.Sprintf("cube_%b", mask), gb, aggs...))
	}
	return ds, map[string][]*query.Query{"mi": mi, "cube": cube}
}

// TestDenseBuildersTaken pins that the dense path is actually taken — a
// silent fall-back to hashing would pass every oracle. On favorita's mi and
// cube batches every builder of the groups at the fact relation Sales is
// dense, no group's dense slots exceed its budget, a view whose box alone
// exceeds it is hashed, and outputs
// are bit-identical with one and two threads (and, for the count-only mi
// batch, with the Sales scan split across threads, whose dense parts merge
// inside one shared box).
func TestDenseBuildersTaken(t *testing.T) {
	ds, batches := favoritaGroupBy(t)
	oversized := 0
	for name, queries := range batches {
		opts := DefaultOptions()
		opts.Threads = 1
		e := NewEngineWithTree(ds.DB, ds.Tree, opts)
		want, err := e.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		two := DefaultOptions()
		two.Threads = 2
		variants := []Options{two}
		if name == "mi" {
			two.DomainParallelRows = 1024
			variants = append(variants, two)
		}
		for _, o := range variants {
			got, err := NewEngineWithTree(ds.DB, ds.Tree, o).Run(queries)
			if err != nil {
				t.Fatal(err)
			}
			for qi, w := range want.Results {
				sameView(t, fmt.Sprintf("%s query %d, %+v", name, qi, o), got.Results[qi], w)
			}
		}

		salesGroups := 0
		for _, g := range want.Plan.Groups {
			gp, err := compileGroup(want.Plan, g, true)
			if err != nil {
				t.Fatal(err)
			}
			if gp.rel, err = e.sortedRel(gp.node.Rel, gp.order); err != nil {
				t.Fatal(err)
			}
			n := gp.rel.Len()
			boxes := gp.keyBoxes(want.Materialized, nil, n)
			dense := gp.denseLayouts(want.Materialized, nil, n)
			budget, slots := 2*n*len(gp.rel.Attrs), 0
			for i, v := range gp.views {
				if dense[i] != nil {
					slots += dense[i].size
				}
				if size, ok := boxSize(boxes[i], math.MaxInt); !ok || size > budget {
					oversized++
					if dense[i] != nil {
						t.Fatalf("%s: view %d over the budget of %d slots is dense", name, v.ID, budget)
					}
				}
				if gp.node.Rel.Name == "Sales" && dense[i] == nil {
					t.Fatalf("%s: view %d at Sales, box %v, budget %d: hashed", name, v.ID, boxes[i], budget)
				}
			}
			if slots > budget {
				t.Fatalf("%s: group %d has %d dense slots, budget %d", name, g.ID, slots, budget)
			}
			if gp.node.Rel.Name == "Sales" {
				salesGroups++
			}
		}
		if salesGroups == 0 {
			t.Fatalf("%s: no group at Sales", name)
		}
	}
	if oversized == 0 {
		t.Fatal("no view box exceeds its budget: the hashed fall-back is untested")
	}
}
