package moo

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
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

// scannedGroup compiles group g of plan, binds it to e's sorted relation and
// runs its scan over the materialized inputs produced the way the engine
// does (Engine.scanGroup), returning the plan and the builders that ran.
func scannedGroup(t *testing.T, e *Engine, plan *core.Plan, g *core.Group, produced []*ViewData) (*groupPlan, []*viewBuilder) {
	t.Helper()
	gp, err := compileGroup(plan, g, true)
	if err != nil {
		t.Fatal(err)
	}
	if gp.rel, err = e.sortedRel(gp.node.Rel, gp.order); err != nil {
		t.Fatal(err)
	}
	gp.resolveLeafCols()
	builders, err := e.scanGroup(gp, produced)
	if err != nil {
		t.Fatal(err)
	}
	return gp, builders
}

// TestDenseBuildersTaken pins that the dense path is actually taken — a
// silent fall-back to hashing would pass every oracle. On favorita's mi and
// cube batches every builder that runs at the fact relation Sales is dense
// or run-built, and no run builder there sorts at finalize; no group's dense
// slots and run stores exceed its budget, a view whose box alone exceeds it
// is hashed, and outputs are bit-identical
// with one and two threads (every scan is cut into the same morsels, whose
// dense parts merge inside one shared box in morsel order).
func TestDenseBuildersTaken(t *testing.T) {
	ds, batches := favoritaGroupBy(t)
	oversized, dense := 0, 0
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
		for _, o := range append(variants, opts) {
			e := NewEngineWithTree(ds.DB, ds.Tree, o)
			for _, g := range want.Plan.Groups {
				gp, builders := scannedGroup(t, e, want.Plan, g, want.Materialized)
				n := gp.rel.Len()
				boxes := gp.keyBoxes(want.Materialized, nil, n)
				budget, used := 8*n*len(gp.rel.Attrs), 0
				for i, v := range gp.views {
					b := builders[i]
					switch {
					case b.dense != nil:
						used += 4 * b.dense.size
						dense++
					case b.win.store != nil:
						st := b.win.store
						used += 8 * (len(st.keys)*len(st.keys[0]) + len(st.vals))
						if st.walk != nil {
							used += 4 * st.walk.size
						} else if !st.sorted && gp.node.Rel.Name == "Sales" {
							t.Fatalf("%s: run view %d at Sales is sorted at finalize", name, v.ID)
						}
					}
					if size, ok := boxSize(boxes[i], math.MaxInt); !ok || 4*size > budget {
						oversized++
						if b.dense != nil {
							t.Fatalf("%s: view %d over the budget of %d bytes is dense", name, v.ID, budget)
						}
					}
					if gp.node.Rel.Name == "Sales" && b.dense == nil && b.win.store == nil {
						t.Fatalf("%s: view %d at Sales, box %v, budget %d: hashed", name, v.ID, boxes[i], budget)
					}
					sameView(t, fmt.Sprintf("%s view %d, %+v", name, v.ID, o), b.finalize(gp.targets[i]), want.Materialized[v.ID])
				}
				if used > budget {
					t.Fatalf("%s: group %d builders take %d bytes, budget %d", name, g.ID, used, budget)
				}
				if gp.node.Rel.Name == "Sales" {
					salesGroups++
				}
			}
		}
		if salesGroups == 0 {
			t.Fatalf("%s: no group at Sales", name)
		}
	}
	if oversized == 0 || dense == 0 {
		t.Fatalf("%d oversized boxes, %d dense builders: a path is untested", oversized, dense)
	}
}

// TestRunBuildersTaken pins that views keyed by a prefix of the scan order
// are built in place: on favorita's mi and cube batches, with the Sales
// scan's morsels on two threads, some builders that run at Sales are run-built,
// in scan order and not, and each such view is bit-identical to the
// one-thread engine's, strictly sorted, and is the store itself, with no
// copy, whenever every store row is used.
func TestRunBuildersTaken(t *testing.T) {
	ds, batches := favoritaGroupBy(t)
	inOrder, walked := 0, 0
	for name, queries := range batches {
		opts := DefaultOptions()
		opts.Threads = 1
		want, err := NewEngineWithTree(ds.DB, ds.Tree, opts).Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		opts.Threads = 2
		e := NewEngineWithTree(ds.DB, ds.Tree, opts)
		for _, g := range want.Plan.Groups {
			gp, builders := scannedGroup(t, e, want.Plan, g, want.Materialized)
			for i, v := range gp.views {
				st := builders[i].win.store
				if st == nil {
					continue
				}
				if gp.node.Rel.Name == "Sales" && st.sorted {
					inOrder++
				} else if gp.node.Rel.Name == "Sales" && st.walk != nil {
					walked++
				}
				got := builders[i].finalize(gp.targets[i])
				label := fmt.Sprintf("%s view %d", name, v.ID)
				sameView(t, label, got, want.Materialized[v.ID])
				for r := 1; r < got.rows; r++ {
					if cmpRows(got, r-1, got, r) >= 0 {
						t.Fatalf("%s: rows %d and %d out of sort order", label, r-1, r)
					}
				}
				if full := got.rows*got.Stride == len(st.vals); got.rows > 0 && full != (&got.Vals[0] == &st.vals[0]) {
					t.Fatalf("%s: %d of %d rows used, published in place: %v", label, got.rows, len(st.vals)/got.Stride, !full)
				}
			}
		}
	}
	if inOrder == 0 || walked == 0 {
		t.Fatalf("run stores at Sales: %d in scan order, %d walked; want both", inOrder, walked)
	}
}
