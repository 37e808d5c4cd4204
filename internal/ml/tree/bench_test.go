package tree_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml/tree"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// BenchmarkTreeLearn learns a depth-3 regression tree over retailer at scale
// 0.0005 from a warm engine: one run for the root statistics and one per
// tree level, reported as runs/tree.
func BenchmarkTreeLearn(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
	spec := workloads.RTSpec(ds)
	spec.MaxDepth = 3
	runs := 0
	run := func(queries []*query.Query) ([]*moo.ViewData, error) {
		runs++
		res, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		return res.Results, nil
	}
	if _, err := tree.LearnWith(run, ds.DB, spec); err != nil { // warm the sorted copies
		b.Fatal(err)
	}
	runs = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.LearnWith(run, ds.DB, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/tree")
}
