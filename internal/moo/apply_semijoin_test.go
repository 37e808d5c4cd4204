package moo

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/jointree"
	"repro/internal/query"
)

// starQueries is a small mixed batch over the starDB fixture touching every
// relation: scalar count, dimension-grouped sums, and a cross-relation
// product.
func starQueries(ids map[string]data.AttrID) []*query.Query {
	return []*query.Query{
		query.NewQuery("count", nil, query.CountAgg()),
		query.NewQuery("byc1", []data.AttrID{ids["c1"]}, query.SumAgg(ids["m"]), query.SumAgg(ids["p1"])),
		query.NewQuery("byk2", []data.AttrID{ids["k2"]}, query.SumProdAgg(ids["m"], ids["p0"])),
	}
}

// dimensionDelta updates dimension D1: re-prices two keys (delete the old
// tuples, insert replacements) — the classic dimension-table update.
func dimensionDelta(t *testing.T, db *data.Database) data.Delta {
	t.Helper()
	rel := db.Relation("D1")
	pick := []int{2, 5}
	old := make([][]int64, 2)
	oldP := make([]float64, len(pick))
	for c := 0; c < 2; c++ {
		old[c] = make([]int64, len(pick))
		for i, r := range pick {
			old[c][i] = rel.Cols[c].Ints[r]
		}
	}
	for i, r := range pick {
		oldP[i] = rel.Cols[2].Floats[r]
	}
	newP := make([]float64, len(pick))
	for i, p := range oldP {
		newP[i] = p + 1.5
	}
	return data.Delta{
		Relation: "D1",
		Deletes:  []data.Column{data.NewIntColumn(old[0]), data.NewIntColumn(old[1]), data.NewFloatColumn(oldP)},
		Inserts:  []data.Column{data.NewIntColumn(old[0]), data.NewIntColumn(old[1]), data.NewFloatColumn(newP)},
	}
}

// TestApplySemiJoinMatchesFullScan applies dimension-table deltas through
// semi-join-restricted maintenance and demands that every materialized view,
// hidden tuple counts included, match a from-scratch RunPlan of the same plan
// over the mutated base: the restriction drops only rows that cannot
// contribute.
func TestApplySemiJoinMatchesFullScan(t *testing.T) {
	db, ids := starDB(t, 2000, 11)
	tree, err := jointree.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	queries := starQueries(ids)
	opts := Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1, TrackCounts: true}
	eng := NewEngineWithTree(db, tree, opts)
	res, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 3; step++ {
		d := dimensionDelta(t, db)
		if err := db.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		var stats *ApplyStats
		res, stats, err = eng.Apply(res, d)
		if err != nil {
			t.Fatal(err)
		}
		if stats.IDScanGroups == 0 {
			t.Fatalf("step %d: no semi-join-restricted groups (stats %+v)", step, stats)
		}
		if stats.ScannedRows >= stats.BaseRows {
			t.Fatalf("step %d: semi-join scanned %d of %d base rows", step, stats.ScannedRows, stats.BaseRows)
		}
		full, err := NewEngineWithTree(db, tree, opts).RunPlan(res.Plan)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sameMaterialized(t, step, res, full)
	}

	// The maintained outputs must also match the baseline over the final state.
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		compareResults(t, "semi/"+queries[qi].Name, res.Results[qi], want[qi])
	}
}

// sameMaterialized fails unless every materialized view of got has the keys
// of the same view in want, with every column — hidden tuple counts
// included — within closeEnough.
func sameMaterialized(t *testing.T, step int, got, want *BatchResult) {
	t.Helper()
	for vid := range want.Materialized {
		gm := viewToMap(got.Materialized[vid])
		wm := viewToMap(want.Materialized[vid])
		if len(gm) != len(wm) {
			t.Fatalf("step %d: view %d has %d rows maintained, %d recomputed", step, vid, len(gm), len(wm))
		}
		for key, wrow := range wm {
			grow, ok := gm[key]
			if !ok {
				t.Fatalf("step %d: view %d missing key", step, vid)
			}
			for col := range wrow {
				if !closeEnough(grow[col], wrow[col]) {
					t.Fatalf("step %d: view %d col %d: got %g want %g", step, vid, col, grow[col], wrow[col])
				}
			}
		}
	}
}

// triangleDB builds the cyclic R(a,b,w) ⋈ S(b,c) ⋈ T(a,c) schema whose join
// tree folds R and S into a materialized bag.
func triangleDB(t *testing.T, seed int64) (*data.Database, []data.AttrID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	w := db.Attr("w", data.Numeric)
	mk := func(name string, x, y data.AttrID, withW bool) {
		n := 25
		xv := make([]int64, n)
		yv := make([]int64, n)
		wv := make([]float64, n)
		for i := 0; i < n; i++ {
			xv[i] = int64(rng.Intn(4))
			yv[i] = int64(rng.Intn(4))
			wv[i] = float64(rng.Intn(5)) + 0.5
		}
		attrs := []data.AttrID{x, y}
		cols := []data.Column{data.NewIntColumn(xv), data.NewIntColumn(yv)}
		if withW {
			attrs = append(attrs, w)
			cols = append(cols, data.NewFloatColumn(wv))
		}
		if err := db.AddRelation(data.NewRelation(name, attrs, cols)); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", a, b, true)
	mk("S", b, c, false)
	mk("T", a, c, false)
	return db, []data.AttrID{a, b, c, w}
}

// TestApplyBagMemberDelta maintains a session through updates against a
// relation folded into a materialized hypertree bag: the delta must be
// expanded over the bag's sibling members, the bag relation kept in sync,
// and the maintained outputs must match both the brute-force baseline and a
// from-scratch recompute over the same tree.
func TestApplyBagMemberDelta(t *testing.T) {
	db, attrs := triangleDB(t, 5)
	a, w := attrs[0], attrs[3]
	queries := []*query.Query{
		query.NewQuery("count", nil, query.CountAgg()),
		query.NewQuery("bya", []data.AttrID{a}, query.SumAgg(w)),
	}
	opts := Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1, TrackCounts: true}
	eng, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	bagNode := eng.Tree().NodeByMember("R")
	if bagNode == nil || !bagNode.IsBag() {
		t.Fatalf("expected R folded into a bag; tree:\n%s", eng.Tree())
	}
	res, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: insert two fresh R tuples and delete one existing one.
	rel := db.Relation("R")
	del := []data.Column{
		data.NewIntColumn([]int64{rel.Cols[0].Ints[0]}),
		data.NewIntColumn([]int64{rel.Cols[1].Ints[0]}),
		data.NewFloatColumn([]float64{rel.Cols[2].Floats[0]}),
	}
	ins := []data.Column{
		data.NewIntColumn([]int64{1, 3}),
		data.NewIntColumn([]int64{2, 0}),
		data.NewFloatColumn([]float64{9.5, 0.25}),
	}
	steps := []data.Delta{
		{Relation: "R", Inserts: ins, Deletes: del},
		// Step 2: delete one of the rows inserted in step 1.
		{Relation: "R", Deletes: []data.Column{
			data.NewIntColumn([]int64{1}), data.NewIntColumn([]int64{2}), data.NewFloatColumn([]float64{9.5}),
		}},
	}
	for si, d := range steps {
		if err := db.ApplyDelta(d); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		var stats *ApplyStats
		res, stats, err = eng.Apply(res, d)
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		if stats.Bag != bagNode.Rel.Name {
			t.Fatalf("step %d: stats.Bag = %q, want %q", si, stats.Bag, bagNode.Rel.Name)
		}
		if stats.Relation != "R" {
			t.Fatalf("step %d: stats.Relation = %q", si, stats.Relation)
		}

		base, err := baseline.New(db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			compareResults(t, queries[qi].Name, res.Results[qi], want[qi])
		}

		// The bag relation must mirror its members: a from-scratch run over
		// the same tree agrees on every materialized view.
		fresh := NewEngineWithTree(db, eng.Tree(), opts)
		full, err := fresh.RunPlan(res.Plan)
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		sameMaterialized(t, si, res, full)
	}
}

// TestApplyBagDeltaJoinsNothing: a member insert whose keys join no sibling
// rows expands to an empty bag delta — the cached result must be returned
// unchanged and stay consistent with a recompute.
func TestApplyBagDeltaJoinsNothing(t *testing.T) {
	db, attrs := triangleDB(t, 9)
	a, w := attrs[0], attrs[3]
	queries := []*query.Query{query.NewQuery("bya", []data.AttrID{a}, query.SumAgg(w))}
	opts := Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1, TrackCounts: true}
	eng, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	d := data.Delta{Relation: "R", Inserts: []data.Column{
		data.NewIntColumn([]int64{77}), data.NewIntColumn([]int64{88}), data.NewFloatColumn([]float64{1.5}),
	}}
	if err := db.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	res2, stats, err := eng.Apply(res, d)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("empty expanded delta must return the cached result")
	}
	if stats.Bag == "" || stats.DirtyGroups != 0 {
		t.Fatalf("stats %+v", stats)
	}
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "bya", res2.Results[0], want[0])
}

// keyView builds a finalized view over groupBy holding the given key rows.
func keyView(groupBy []data.AttrID, rows ...[]int64) *ViewData {
	b := newViewBuilder(groupBy, 1, false, nil)
	for _, r := range rows {
		b.row(r)
	}
	return b.finalize(nil)
}

// probeKernel is a kernel whose step reads deltas[i] for each i of inputs,
// probing on attrs[i] (the view's first group-by column): all probeSet and
// subsetFor read of a kernel.
func probeKernel(e *Engine, inputs []int, attrs ...[]data.AttrID) *maintKernel {
	k := &maintKernel{gp: &groupPlan{}, st: ivm.Step{DeltaInputs: inputs, SemiJoinAttrs: attrs}}
	for _, a := range attrs {
		k.probePos = append(k.probePos, []int{0})
		k.attrIDs = append(k.attrIDs, e.orderID(a))
	}
	return k
}

// TestProbeSetKeys pins the integer probe set: each delta view's keys are
// projected onto the probe positions, sorted and deduplicated; a step's key
// lists come one per attribute list, lists over the same attributes as
// their union; and equal probe sets from two steps of one round, built from
// the same or from equal views, share one subset entry.
func TestProbeSetKeys(t *testing.T) {
	db, ids := starDB(t, 50, 11)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := []data.AttrID{ids["k1"]}, []data.AttrID{ids["k2"]}

	// Projection: onto a prefix of the sort order (no sort) and onto a
	// later position or a permutation (sorted), duplicates dropped.
	v := keyView([]data.AttrID{ids["k1"], ids["k2"]}, []int64{1, 9}, []int64{3, 9}, []int64{1, 7}, []int64{2, 7})
	for _, c := range []struct {
		pos  []int
		want [][]int64
	}{
		{[]int{0}, [][]int64{{1, 2, 3}}},
		{[]int{1}, [][]int64{{7, 9}}},
		{[]int{1, 0}, [][]int64{{7, 7, 9, 9}, {1, 2, 1, 3}}},
		{[]int{0, 1}, [][]int64{{1, 1, 2, 3}, {7, 9, 7, 9}}},
	} {
		if got := probeKeys(v, c.pos); !reflect.DeepEqual(got, c.want) {
			t.Errorf("probeKeys on %v = %v, want %v", c.pos, got, c.want)
		}
	}

	deltas := []*ViewData{
		keyView(k1, []int64{5}, []int64{3}),
		keyView(k2, []int64{7}, []int64{3}),
		keyView(k1, []int64{3}, []int64{5}), // equal to deltas[0], another view
		keyView(k1, []int64{5}, []int64{4}),
		nil, // an input with no delta probes nothing
	}
	keysOf := func(ps []*keySet) [][]int64 {
		var out [][]int64
		for _, ks := range ps {
			out = append(out, ks.keys[0])
		}
		return out
	}
	sc := newScanCache(eng)
	// Key lists come in interned-id order, whatever the input order.
	first, second := []int64{3, 5}, []int64{3, 7}
	if eng.orderID(k1) > eng.orderID(k2) {
		first, second = second, first
	}
	ps := sc.probeSet(probeKernel(eng, []int{1, 0, 4}, k2, k1, k2), deltas)
	if got := keysOf(ps); !reflect.DeepEqual(got, [][]int64{first, second}) {
		t.Fatalf("probe set %v, want %v", got, [][]int64{first, second})
	}
	// Inputs over the same attributes merge: equal lists into the first
	// one, different ones into their union.
	ps = sc.probeSet(probeKernel(eng, []int{0, 2}, k1, k1), deltas)
	if len(ps) != 1 || ps[0] != sc.keys[keysKey{view: deltas[0], attrs: eng.orderID(k1)}] {
		t.Fatalf("equal key lists over one attribute list did not collapse: %v", keysOf(ps))
	}
	ps = sc.probeSet(probeKernel(eng, []int{0, 3}, k1, k1), deltas)
	if got := keysOf(ps); !reflect.DeepEqual(got, [][]int64{{3, 4, 5}}) {
		t.Fatalf("union %v, want [[3 4 5]]", got)
	}

	// Sharing: two steps with equal probe sets — one through equal views —
	// get one entry; a different set gets its own.
	rel := db.Relation("F")
	a, err := sc.subsetFor(probeKernel(eng, []int{0, 1}, k1, k2), rel, deltas)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.subsetFor(probeKernel(eng, []int{1, 2}, k2, k1), rel, deltas)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sc.subsetFor(probeKernel(eng, []int{3}, k1), rel, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == c || len(sc.subsets[rel]) != 2 {
		t.Fatalf("subset entries: a==b %v, a==c %v, %d entries", a == b, a == c, len(sc.subsets[rel]))
	}
	// The entry counts the rows each key list matches.
	want := 0
	for r := 0; r < rel.Len(); r++ {
		if x := rel.MustCol(ids["k1"]).Ints[r]; x == 3 || x == 5 {
			want++
		}
		if x := rel.MustCol(ids["k2"]).Ints[r]; x == 3 || x == 7 {
			want++
		}
	}
	if a.total != want {
		t.Fatalf("subset total %d, want %d", a.total, want)
	}
}

// TestProbeSetAllocs pins that building a round's probe sets allocates per
// delta input, not per delta row: ten times the rows costs the same number
// of allocations. Both sizes take data.SortIDs' radix path, whose scratch is
// a fixed number of allocations.
func TestProbeSetAllocs(t *testing.T) {
	db, ids := starDB(t, 50, 11)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := []data.AttrID{ids["k1"]}, []data.AttrID{ids["k2"]}
	allocs := func(rows int) float64 {
		var a, b, pair [][]int64
		for r := 0; r < rows; r++ {
			a = append(a, []int64{int64(r)})
			b = append(b, []int64{int64(2 * r)})
			pair = append(pair, []int64{int64(r % 7), int64(r)})
		}
		deltas := []*ViewData{keyView(k1, a...), keyView(k2, b...), keyView(k1, b...),
			keyView([]data.AttrID{ids["k0"], ids["k1"]}, pair...)}
		k := probeKernel(eng, []int{0, 1, 2, 3}, k1, k2, k1, k1)
		k.probePos[3] = []int{1} // not a prefix of the view's order: sorted
		return testing.AllocsPerRun(20, func() {
			newScanCache(eng).probeSet(k, deltas)
		})
	}
	small, large := allocs(2000), allocs(20000)
	if small != large {
		t.Fatalf("probe sets allocate %v times for 2,000 rows per input, %v for 20,000", small, large)
	}
}
