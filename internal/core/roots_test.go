package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/jointree"
	"repro/internal/query"
)

// favoritaMI returns tiny favorita and its mutual-information batch: the
// total count, then a count per MI attribute and per pair of them.
func favoritaMI(t *testing.T) (*datagen.Dataset, []*query.Query) {
	t.Helper()
	ds, err := datagen.Favorita(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		t.Fatal(err)
	}
	qs := []*query.Query{query.NewQuery("total", nil, query.CountAgg())}
	for i, a := range ds.MIAttrs {
		qs = append(qs, query.NewQuery(fmt.Sprintf("mi_%d", a), []data.AttrID{a}, query.CountAgg()))
		for _, b := range ds.MIAttrs[i+1:] {
			qs = append(qs, query.NewQuery(fmt.Sprintf("mi_%d_%d", a, b), []data.AttrID{a, b}, query.CountAgg()))
		}
	}
	return ds, qs
}

// TestRootsFollowDistinctGroupBys: the roots of a batch do not change when
// its queries gain aggregates (conditioned ones, as a tree node's batch
// has) or when the whole batch repeats (as a tree level concatenates its
// nodes' batches).
func TestRootsFollowDistinctGroupBys(t *testing.T) {
	ds, batch := favoritaMI(t)
	want := assignRoots(ds.Tree, batch, true)

	measure := ds.Continuous[0]
	var conditioned []*query.Query
	for _, q := range batch {
		c := *q
		c.Aggs = append(slices.Clone(q.Aggs),
			query.NewAggregate("cond", query.NewTerm(query.IndicatorF(measure, query.LE, 1))),
			query.SumAgg(measure))
		conditioned = append(conditioned, &c)
	}
	if got := assignRoots(ds.Tree, conditioned, true); !slices.Equal(got, want) {
		t.Errorf("conditioned aggregates moved roots:\n got %v\nwant %v", got, want)
	}

	repeated := slices.Concat(batch, conditioned, batch)
	got := assignRoots(ds.Tree, repeated, true)
	for i := 0; i < 3; i++ {
		if part := got[i*len(batch) : (i+1)*len(batch)]; !slices.Equal(part, want) {
			t.Errorf("repetition %d of the batch moved roots:\n got %v\nwant %v", i, part, want)
		}
	}
}

// TestFavoritaItemHtypeRootedAtItems: in the MI batch, (item, htype) is
// cheapest at Items, where the view Sales → Items the batch already builds
// for (family, htype) and its kin carries htype per item; the paper's
// ranking puts it at Sales.
func TestFavoritaItemHtypeRootedAtItems(t *testing.T) {
	ds, batch := favoritaMI(t)
	p, err := BuildPlan(ds.Tree, batch, PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	item, _ := ds.DB.AttrByName("item")
	htype, _ := ds.DB.AttrByName("htype")
	for qi, q := range p.Queries {
		if len(q.GroupBy) == 2 && slices.Contains(q.GroupBy, item) && slices.Contains(q.GroupBy, htype) {
			if got := p.Tree.Nodes[p.Roots[qi]].Rel.Name; got != "Items" {
				t.Fatalf("(item, htype) rooted at %s, want Items", got)
			}
			if paper := p.Tree.Nodes[p.PaperRoots[qi]].Rel.Name; paper != "Sales" {
				t.Fatalf("(item, htype) has paper root %s, want Sales", paper)
			}
			return
		}
	}
	t.Fatal("no (item, htype) query in the MI batch")
}

// randomSchema builds an acyclic schema of 2–6 relations: relation i > 0
// joins a random earlier one on key k<i>, and every relation holds one or
// two categorical attributes of its own. It returns the join tree and every
// attribute.
func randomSchema(t *testing.T, rng *rand.Rand) (*jointree.Tree, []data.AttrID) {
	t.Helper()
	db := data.NewDatabase()
	n := 2 + rng.Intn(5)
	schemas := make([][]data.AttrID, n)
	var all []data.AttrID
	for i := 1; i < n; i++ {
		k := db.Attr(fmt.Sprintf("k%d", i), data.Key)
		p := rng.Intn(i)
		schemas[i] = append(schemas[i], k)
		schemas[p] = append(schemas[p], k)
		all = append(all, k)
	}
	for i := range schemas {
		for j := 0; j < 1+rng.Intn(2); j++ {
			c := db.Attr(fmt.Sprintf("c%d_%d", i, j), data.Categorical)
			schemas[i] = append(schemas[i], c)
			all = append(all, c)
		}
	}
	for i, schema := range schemas {
		rows := 5 + rng.Intn(200)
		cols := make([]data.Column, len(schema))
		for c := range cols {
			dom := 1 + rng.Intn(20)
			vals := make([]int64, rows)
			for r := range vals {
				vals[r] = int64(rng.Intn(dom))
			}
			cols[c] = data.NewIntColumn(vals)
		}
		if err := db.AddRelation(data.NewRelation(fmt.Sprintf("R%d", i), schema, cols)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := jointree.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	return tree, all
}

// Property: over random schemas and batches, every query with a group-by is
// rooted at a node holding one of its attributes, and the cost model's
// total at the chosen roots never exceeds its total at the paper's. The
// chosen roots are a local optimum of that total: moving any one set to
// another candidate does not lower it.
func TestRootModelNeverWorseThanPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	moved := 0
	for trial := 0; trial < 60; trial++ {
		tree, attrs := randomSchema(t, rng)
		var qs []*query.Query
		for qi := 0; qi < 1+rng.Intn(10); qi++ {
			var gb []data.AttrID
			for j := rng.Intn(4); j > 0; j-- {
				gb = append(gb, attrs[rng.Intn(len(attrs))])
			}
			qs = append(qs, query.NewQuery(fmt.Sprintf("q%d", qi), sortAttrs(gb), query.CountAgg()))
		}
		roots := assignRoots(tree, qs, true)
		for qi, q := range qs {
			if !holdsAny(tree.Nodes[roots[qi]], q.GroupBy) {
				t.Fatalf("trial %d: query %v rooted at node %d, which holds none of it", trial, q.GroupBy, roots[qi])
			}
		}
		m := newRootModel(tree, qs, paperRank(tree, qs))
		paper := m.total(m.start)
		chosen := m.search()
		if got := m.total(chosen); got > paper {
			t.Fatalf("trial %d: modeled total %d at the chosen roots, %d at the paper's", trial, got, paper)
		}
		for qi, s := range m.setOf {
			if roots[qi] != chosen[s] {
				t.Fatalf("trial %d: query %d rooted at %d, its group-by set at %d", trial, qi, roots[qi], chosen[s])
			}
		}
		if !slices.Equal(chosen, m.start) {
			moved++
		}
		best := m.total(chosen)
		for s, gb := range m.sets {
			for r, node := range tree.Nodes {
				if !holdsAny(node, gb) {
					continue
				}
				alt := slices.Clone(chosen)
				alt[s] = r
				if got := m.total(alt); got < best {
					t.Fatalf("trial %d: rooting set %v at node %d lowers the total %d to %d", trial, gb, r, best, got)
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("the model kept the paper's roots in every trial")
	}
}

// total returns the modeled cost of rooting each set s at roots[s]: the
// outputs' emissions plus those of every view some set needs, once.
func (m *rootModel) total(roots []int) int64 {
	var total int64
	seen := map[int]bool{}
	for s, gb := range m.sets {
		out := m.view(roots[s], QueryTarget, gb)
		total += m.estimate(out).cost
		for _, v := range m.needs(out) {
			if !seen[v] {
				seen[v] = true
				total += m.estimate(v).cost
			}
		}
	}
	return total
}
