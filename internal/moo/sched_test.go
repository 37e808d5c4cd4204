package moo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// runExecuteWithTimeout runs execute and fails the test if it does not
// return: a failing group must surface an error, and no goroutine may wait
// forever for a slot.
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
		t.Fatal("execute deadlocked")
		return nil
	}
}

// sabotagedPlan plans queries for e and sabotages a mid-DAG view: a factor
// over an attribute its node's relation does not carry makes compileGroup
// fail.
func sabotagedPlan(t *testing.T, e *Engine, queries []*query.Query) *core.Plan {
	t.Helper()
	plan, err := core.BuildPlan(e.Tree(), queries, core.PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) < 3 {
		t.Fatalf("want ≥3 groups for a meaningful DAG, got %d", len(plan.Groups))
	}
	victim := plan.Views[plan.Groups[1].Views[0]]
	node := plan.Tree.Nodes[victim.From]
	for id := 0; id < e.DB().NumAttrs(); id++ {
		if !node.HasAttr(data.AttrID(id)) {
			victim.Aggs[0].Factors = append(victim.Aggs[0].Factors, query.IdentF(data.AttrID(id)))
			return plan
		}
	}
	t.Fatal("no alien attribute found")
	return nil
}

// TestExecuteFailingGroupNoDeadlock sabotages one view so its group fails to
// compile, and checks the scheduler drains cleanly with the error under
// several thread counts.
func TestExecuteFailingGroupNoDeadlock(t *testing.T) {
	db, js, vs := schedDB(t)
	queries := schedQueries(js, vs)
	for _, threads := range []int{1, 2, 3, 8} {
		eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		err = runExecuteWithTimeout(t, eng, sabotagedPlan(t, eng, queries))
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

// TestExecuteCyclicDepsNoDeadlock feeds execute dependency graphs with a
// cycle (unreachable from groupViews, but execute must reject them, not hang
// or run them) at one and four threads.
func TestExecuteCyclicDepsNoDeadlock(t *testing.T) {
	db, js, vs := schedDB(t)
	queries := schedQueries(js, vs)
	for _, threads := range []int{1, 4} {
		eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads})
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
			t.Fatalf("threads=%d: fully cyclic dependency graph executed without error", threads)
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
			t.Fatalf("threads=%d: partially cyclic dependency graph executed without error", threads)
		}
		if !strings.Contains(err.Error(), "cyclic") {
			t.Fatalf("threads=%d: unexpected error: %v", threads, err)
		}
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

// TestBusySlotsReleased runs, at Threads 1 to 4 and 64, a batch, a stream of
// deltas whose Apply full-scans a step, a sabotaged batch and a batch on one
// free slot. After each, every busy slot is free and the goroutines are back
// to their starting count: a scan helper that finds no free slot leaves when
// its caller has taken the last morsel. No kernel holds more than maxMorsels
// contexts, at most one goroutine per group and maxMorsels-1 helpers per
// group run, and every view equals Threads 1's bit for bit.
func TestBusySlotsReleased(t *testing.T) {
	start := runtime.NumGoroutine()
	settled := func(label string, e *Engine) {
		t.Helper()
		if n := len(e.busy); n != 0 {
			t.Fatalf("%s: %d busy slots still held", label, n)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d at start", label, runtime.NumGoroutine(), start)
			}
		}
	}
	var want [2][]*ViewData // Threads 1's views after the batch and after the deltas
	for _, threads := range []int{1, 2, 3, 4, 64} {
		db, js, vs := schedDB(t)
		queries := schedQueries(js, vs)
		eng, err := NewEngine(db, Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads, TrackCounts: true})
		if err != nil {
			t.Fatal(err)
		}
		stop, peak := make(chan struct{}), make(chan int)
		go func() {
			most := 0
			for {
				select {
				case <-stop:
					peak <- most
					return
				default:
					most = max(most, runtime.NumGoroutine())
					runtime.Gosched()
				}
			}
		}()
		res, err := eng.Run(queries)
		close(stop)
		if most, bound := <-peak, start+1+len(res.Plan.Groups)*maxMorsels; most > bound {
			t.Fatalf("threads=%d: %d goroutines during Run, want at most %d", threads, most, bound)
		}
		if err != nil {
			t.Fatal(err)
		}
		settled(fmt.Sprintf("threads=%d Run", threads), eng)
		views := [2][]*ViewData{res.Materialized}

		rng := rand.New(rand.NewSource(11))
		fullScans := 0
		for step := 0; step < 6; step++ {
			d := resampleDelta(rng, db.Relation("R0"))
			if err := db.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			var st *ApplyStats
			if res, st, err = eng.Apply(res, d); err != nil {
				t.Fatalf("threads=%d step %d: %v", threads, step, err)
			}
			fullScans += st.FullScanGroups
			settled(fmt.Sprintf("threads=%d Apply %d", threads, step), eng)
		}
		if fullScans == 0 {
			t.Fatalf("threads=%d: no Apply step full-scanned", threads)
		}
		for key, k := range eng.kernels {
			if len(k.ctxs) > maxMorsels {
				t.Fatalf("threads=%d: kernel %+v holds %d contexts", threads, key, len(k.ctxs))
			}
		}
		views[1] = res.Materialized

		if threads == 1 {
			want = views
		}
		for stage := range views {
			for id, v := range views[stage] {
				w := want[stage][id]
				sameView(t, fmt.Sprintf("threads=%d stage %d view %d", threads, stage, id), v, w)
				for i := range w.Vals[:w.rows*w.Stride] {
					if math.Float64bits(v.Vals[i]) != math.Float64bits(w.Vals[i]) {
						t.Fatalf("threads=%d stage %d view %d: value %d is %v, want %v", threads, stage, id, i, v.Vals[i], w.Vals[i])
					}
				}
			}
		}

		if _, err := eng.RunPlan(sabotagedPlan(t, eng, queries)); err == nil {
			t.Fatalf("threads=%d: sabotaged plan executed without error", threads)
		}
		settled(fmt.Sprintf("threads=%d sabotaged Run", threads), eng)

		// With every slot but one held elsewhere, no helper finds a free
		// slot: each must leave once its caller has taken the last morsel.
		for range threads - 1 {
			eng.busy <- struct{}{}
		}
		if err := runExecuteWithTimeout(t, eng, res.Plan); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		for range threads - 1 {
			<-eng.busy
		}
		settled(fmt.Sprintf("threads=%d Run on one free slot", threads), eng)
	}
}
