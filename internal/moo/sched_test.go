package moo

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/query"
)

// schedDB builds a three-relation chain whose plans have several groups with
// real dependencies: R0(j0,j1,v0) ⋈ R1(j1,j2,v1) ⋈ R2(j2,j3,v2).
func schedDB(t *testing.T) (*data.Database, []data.AttrID, []data.AttrID) {
	t.Helper()
	db := data.NewDatabase()
	var js []data.AttrID
	for _, n := range []string{"j0", "j1", "j2", "j3"} {
		js = append(js, db.Attr(n, data.Key))
	}
	var vs []data.AttrID
	for i, n := range []string{"v0", "v1", "v2"} {
		v := db.Attr(n, data.Numeric)
		vs = append(vs, v)
		rows := 12 + 3*i
		ints := func(mod int) []int64 {
			out := make([]int64, rows)
			for r := range out {
				out[r] = int64(r % mod)
			}
			return out
		}
		floats := make([]float64, rows)
		for r := range floats {
			floats[r] = float64(r%5) + 0.5
		}
		if err := db.AddRelation(data.NewRelation("R"+string(rune('0'+i)),
			[]data.AttrID{js[i], js[i+1], v},
			[]data.Column{data.NewIntColumn(ints(3)), data.NewIntColumn(ints(4)),
				data.NewFloatColumn(floats)})); err != nil {
			t.Fatal(err)
		}
	}
	return db, js, vs
}

// schedQueries spreads group-bys across the chain so every node hosts views.
func schedQueries(js, vs []data.AttrID) []*query.Query {
	return []*query.Query{
		query.NewQuery("q0", []data.AttrID{js[0]}, query.SumAgg(vs[2])),
		query.NewQuery("q1", []data.AttrID{js[3]}, query.SumAgg(vs[0])),
		query.NewQuery("q2", nil, query.CountAgg(), query.SumProdAgg(vs[0], vs[2])),
	}
}

// runExecuteWithTimeout guards against the historical failure mode: a failing
// group must surface an error, never park the worker pool forever.
func runExecuteWithTimeout(t *testing.T, e *Engine, plan *core.Plan) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := e.execute(plan)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("execute deadlocked on a failing group")
		return nil
	}
}

// TestExecuteFailingGroupNoDeadlock sabotages one view so its group fails to
// compile, and checks the parallel scheduler drains cleanly with the error
// under several thread counts.
func TestExecuteFailingGroupNoDeadlock(t *testing.T) {
	db, js, vs := schedDB(t)
	queries := schedQueries(js, vs)
	for _, threads := range []int{2, 3, 8} {
		eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.BuildPlan(eng.Tree(), queries, core.PlanOptions{MultiRoot: true, MultiOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) < 3 {
			t.Fatalf("want ≥3 groups for a meaningful DAG, got %d", len(plan.Groups))
		}
		// Sabotage a mid-DAG view: a factor over an attribute its node's
		// relation does not carry makes compileGroup fail.
		victim := plan.Views[plan.Groups[1].Views[0]]
		node := plan.Tree.Nodes[victim.From]
		var alien data.AttrID = -1
		for id := 0; id < db.NumAttrs(); id++ {
			if !node.HasAttr(data.AttrID(id)) {
				alien = data.AttrID(id)
				break
			}
		}
		if alien < 0 {
			t.Fatal("no alien attribute found")
		}
		victim.Aggs[0].Factors = append(victim.Aggs[0].Factors, query.IdentF(alien))

		err = runExecuteWithTimeout(t, eng, plan)
		if err == nil {
			t.Fatalf("threads=%d: sabotaged plan executed without error", threads)
		}
		if !strings.Contains(err.Error(), "not in node") {
			t.Fatalf("threads=%d: unexpected error: %v", threads, err)
		}
	}
}

// TestExecuteFailFastWhileGroupInFlight pins the race where one group fails
// (closing the ready channel) while a slow group is still scanning: the slow
// group's completion used to enqueue its dependents into the closed channel
// and panic. The big relation keeps its group in flight well past the
// sabotaged group's instant compile failure.
func TestExecuteFailFastWhileGroupInFlight(t *testing.T) {
	db := data.NewDatabase()
	j0 := db.Attr("j0", data.Key)
	j1 := db.Attr("j1", data.Key)
	j2 := db.Attr("j2", data.Key)
	v0 := db.Attr("v0", data.Numeric)
	v1 := db.Attr("v1", data.Numeric)
	big := 300_000
	bi := make([]int64, big)
	bj := make([]int64, big)
	bv := make([]float64, big)
	for i := range bi {
		bi[i], bj[i], bv[i] = int64(i%7), int64(i%11), float64(i%5)
	}
	if err := db.AddRelation(data.NewRelation("Big",
		[]data.AttrID{j0, j1, v0},
		[]data.Column{data.NewIntColumn(bi), data.NewIntColumn(bj), data.NewFloatColumn(bv)})); err != nil {
		t.Fatal(err)
	}
	si := []int64{0, 1, 2}
	sv := []float64{1, 2, 3}
	if err := db.AddRelation(data.NewRelation("Small",
		[]data.AttrID{j1, j2, v1},
		[]data.Column{data.NewIntColumn(si), data.NewIntColumn(si), data.NewFloatColumn(sv)})); err != nil {
		t.Fatal(err)
	}
	queries := []*query.Query{
		query.NewQuery("a", []data.AttrID{j2}, query.SumAgg(v0)),
		query.NewQuery("b", []data.AttrID{j0}, query.SumAgg(v1)),
	}
	eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(eng.Tree(), queries, core.PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage a first-wave view NOT computed over Big, so its group fails
	// while Big's group is mid-scan; Big's group must have a dependent.
	var sabotaged bool
	for _, g := range plan.Groups {
		node := plan.Tree.Nodes[g.Node]
		if node.Rel.Name != "Small" {
			continue
		}
		v := plan.Views[g.Views[0]]
		if len(v.InputViews()) > 0 {
			continue // want a first-wave group
		}
		v.Aggs[0].Factors = append(v.Aggs[0].Factors, query.IdentF(v0))
		sabotaged = true
		break
	}
	if !sabotaged {
		t.Skip("plan shape has no first-wave group at Small")
	}
	for i := 0; i < 3; i++ {
		if err := runExecuteWithTimeout(t, eng, plan); err == nil {
			t.Fatal("sabotaged plan executed without error")
		}
	}
}

// TestExecuteCyclicDepsNoDeadlock feeds execute a dependency graph with a
// cycle (unreachable from groupViews, but execute must not hang on it).
func TestExecuteCyclicDepsNoDeadlock(t *testing.T) {
	db, js, vs := schedDB(t)
	queries := schedQueries(js, vs)
	eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(eng.Tree(), queries, core.PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Groups)
	if n < 3 {
		t.Fatalf("want ≥3 groups, got %d", n)
	}

	// Full cycle: no group can start.
	full := make([][]int, n)
	for g := range full {
		full[g] = []int{(g + 1) % n}
	}
	orig := plan.GroupDeps
	plan.GroupDeps = full
	if err := runExecuteWithTimeout(t, eng, plan); err == nil {
		t.Fatal("fully cyclic dependency graph executed without error")
	}

	// Partial cycle: some progress, then a wedge.
	partial := make([][]int, n)
	for g := 1; g < n; g++ {
		partial[g] = append([]int(nil), orig[g]...)
	}
	partial[n-1] = append(partial[n-1], n-1) // self-dependency wedges the tail
	plan.GroupDeps = partial
	err = runExecuteWithTimeout(t, eng, plan)
	if err == nil {
		t.Fatal("partially cyclic dependency graph executed without error")
	}
	if !strings.Contains(err.Error(), "stalled") && !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDomainParallelThreadsSweep checks every Threads value from 1 to 4
// against the baseline: each runs the same morsels of every scan, on one to
// four goroutines.
func TestDomainParallelThreadsSweep(t *testing.T) {
	db, js, vs := schedDB(t)
	queries := schedQueries(js, vs)

	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	for threads := 1; threads <= 4; threads++ {
		eng := NewEngineWithTree(db, mustTree(t, db),
			Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads})
		res, err := eng.Run(queries)
		if err != nil {
			t.Fatalf("Threads=%d: %v", threads, err)
		}
		for qi := range queries {
			compareResults(t, queries[qi].Name, res.Results[qi], want[qi])
		}
	}
}

// TestMorselCut pins the cut of a sorted scan: at most four non-empty
// morsels, each ending where a top-attribute value does, a morsel closing at
// the first value boundary n/m rows past its start (m the morsel count).
func TestMorselCut(t *testing.T) {
	for _, tc := range []struct {
		runs []int // rows per top-attribute value, in sorted order
		want []int
	}{
		{nil, []int{0, 0}},
		{[]int{5}, []int{0, 5}},
		{[]int{3, 2}, []int{0, 3, 5}},
		{[]int{10, 10, 10, 10, 10, 10, 10, 10}, []int{0, 20, 40, 60, 80}},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1}, []int{0, 2, 4, 6, 8}},
		{[]int{2, 2, 2, 2, 8}, []int{0, 4, 8, 16}},
		{[]int{90, 5, 5}, []int{0, 90, 100}},
	} {
		db := data.NewDatabase()
		a := db.Attr("a", data.Key)
		var vals []int64
		for v, rows := range tc.runs {
			for i := 0; i < rows; i++ {
				vals = append(vals, int64(v))
			}
		}
		gp := &groupPlan{rel: data.NewRelation("T", []data.AttrID{a}, []data.Column{data.NewIntColumn(vals)}),
			order: []data.AttrID{a}, L: 1}
		if got := gp.morsels(); !slices.Equal(got, tc.want) {
			t.Fatalf("runs %v: morsel bounds %v, want %v", tc.runs, got, tc.want)
		}
	}
}

// TestDomainParallelTinyRelations cuts relations with 0 and 1 rows into
// morsels on four threads: the cut must handle empty ranges and a single
// top-level run.
func TestDomainParallelTinyRelations(t *testing.T) {
	for _, rows := range []int{0, 1} {
		db := data.NewDatabase()
		a := db.Attr("a", data.Key)
		b := db.Attr("b", data.Key)
		m := db.Attr("m", data.Numeric)
		av := make([]int64, rows)
		bv := make([]int64, rows)
		mv := make([]float64, rows)
		for i := range av {
			av[i], bv[i], mv[i] = int64(i), 0, 1.5
		}
		if err := db.AddRelation(data.NewRelation("T",
			[]data.AttrID{a, b, m},
			[]data.Column{data.NewIntColumn(av), data.NewIntColumn(bv), data.NewFloatColumn(mv)})); err != nil {
			t.Fatal(err)
		}
		queries := []*query.Query{
			query.NewQuery("g", []data.AttrID{a}, query.CountAgg(), query.SumAgg(m)),
			query.NewQuery("s", nil, query.SumAgg(m)),
		}
		eng := NewEngineWithTree(db, mustTree(t, db),
			Options{MultiOutput: true, Compiled: true, Threads: 4})
		res, err := eng.Run(queries)
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
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
	}
}

func mustTree(t *testing.T, db *data.Database) *jointree.Tree {
	t.Helper()
	tree, err := jointree.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}
