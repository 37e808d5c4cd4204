package moo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

// TestProbeSetEncoding pins the probe tags and subset cache key of a probe
// set with two semi-join signatures to their canonical bytes: each tag is
// the signature's attribute list formatted "%v\x00" followed by the packed
// delta key, and the key concatenates the sorted tags, each prefixed by its
// decimal length and ':'.
func TestProbeSetEncoding(t *testing.T) {
	db, ids := starDB(t, 50, 11)
	opts := DefaultOptions()
	opts.TrackCounts = true
	eng, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.PlanBatch(starQueries(ids))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ivm.Analyze(plan, eng.Tree().NodeByRelation("D1").ID)
	if err != nil {
		t.Fatal(err)
	}
	var st ivm.Step
	for _, s := range sched.Steps {
		if s.SemiJoinAttrs != nil {
			st = s
		}
	}
	if st.SemiJoinAttrs == nil {
		t.Fatal("no restricted step to specialize")
	}
	// Two delta inputs with distinct signatures: the dimension views keyed
	// by k1 and by k2.
	deltas := make([]*ViewData, len(plan.Views))
	st.DeltaInputs, st.SemiJoinAttrs = nil, nil
	keys := map[data.AttrID][]int64{ids["k1"]: {5, 3}, ids["k2"]: {7, 3}}
	for _, v := range plan.Views {
		if len(v.GroupBy) != 1 || keys[v.GroupBy[0]] == nil || v.IsOutput() || deltas[v.ID] != nil {
			continue
		}
		a := v.GroupBy[0]
		b := newViewBuilder(v.GroupBy, len(v.Cols), false, nil)
		for _, k := range keys[a] {
			b.row([]int64{k})
		}
		deltas[v.ID] = b.finalize(nil)
		st.DeltaInputs = append(st.DeltaInputs, v.ID)
		st.SemiJoinAttrs = append(st.SemiJoinAttrs, []data.AttrID{a})
		delete(keys, a)
	}
	if len(st.DeltaInputs) != 2 {
		t.Fatalf("found %d delta inputs, want 2", len(st.DeltaInputs))
	}
	k, err := eng.kernelFor(plan, eng.Tree().NodeByRelation("D1").ID, st)
	if err != nil {
		t.Fatal(err)
	}
	probes, ckey := k.probeSet(deltas)

	var want []string
	for i, in := range st.DeltaInputs {
		for r := 0; r < deltas[in].NumRows(); r++ {
			want = append(want, fmt.Sprintf("%v\x00", st.SemiJoinAttrs[i])+string(data.AppendKey(nil, deltas[in].KeyAt(r, 0))))
		}
	}
	sort.Strings(want)
	wantKey := ""
	for _, tag := range want {
		wantKey += fmt.Sprintf("%d:", len(tag)) + tag
	}
	if len(probes) != len(want) {
		t.Fatalf("%d probes, want %d", len(probes), len(want))
	}
	for i, p := range probes {
		if p.tag != want[i] || !strings.HasSuffix(p.tag, p.key) {
			t.Errorf("probe %d: tag %q key %q, want tag %q", i, p.tag, p.key, want[i])
		}
	}
	if ckey != wantKey {
		t.Errorf("subset key %q, want %q", ckey, wantKey)
	}
}
