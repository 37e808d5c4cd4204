package moo_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml/tree"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// BenchmarkGroupScan times one warm Engine.Run of the retailer covar batch
// on one thread: the trie scan's slot arithmetic, running sums and emission
// dominate, with sorted copies already cached by the warm-up run. It lives
// in an external test package because internal/workloads imports moo.
func BenchmarkGroupScan(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, ds, workloads.CovarMatrix(ds))
}

// BenchmarkGroupByScan times one warm Engine.Run of the favorita
// mutual-information batch on one thread: pairwise group-bys, so view
// materialisation — dense builders and their slot-walk finalize — dominates
// rather than slot arithmetic.
func BenchmarkGroupByScan(b *testing.B) {
	ds, err := datagen.Favorita(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, ds, workloads.MutualInfo(ds))
}

// BenchmarkTreeLevelScan times one warm RunPlan of the deepest level batch
// of a depth-3 retailer regression tree on one thread: every frontier node's
// candidate-split statistics in one batch, so the scan fetches wide runs of
// aggregates from bound views (a lookup run of 84 Items aggregates at each
// Inventory ksn value) and adds them into wide output rows. The plan is built
// outside the timer.
func BenchmarkTreeLevelScan(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	opts := moo.DefaultOptions()
	opts.Threads = 1
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
	plan, err := eng.PlanBatch(treeLevelBatch(b, ds))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunPlan(plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunPlan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// treeLevelBatch returns the deepest level batch tree.LearnWith runs for a
// depth-3 regression tree over ds (workloads.RTSpec).
func treeLevelBatch(tb testing.TB, ds *datagen.Dataset) []*query.Query {
	tb.Helper()
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
	spec := workloads.RTSpec(ds)
	spec.MaxDepth = 3
	var level []*query.Query
	if _, err := tree.LearnWith(func(queries []*query.Query) ([]*moo.ViewData, error) {
		level = queries
		res, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		return res.Results, nil
	}, ds.DB, spec); err != nil {
		tb.Fatal(err)
	}
	return level
}

// benchRun times warm single-threaded runs of queries over ds.
func benchRun(b *testing.B, ds *datagen.Dataset, queries []*query.Query) {
	opts := moo.DefaultOptions()
	opts.Threads = 1
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
	if _, err := eng.Run(queries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(queries); err != nil {
			b.Fatal(err)
		}
	}
}
