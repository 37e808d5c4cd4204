package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ml/tree"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// BenchmarkPlanBatch times BuildPlan — Find Roots with its cost model,
// pushdown, merging, grouping and the attribute orders — on the favorita
// mutual-information batch (mi) and on the deepest level batch of a depth-3
// retailer regression tree (tree_level), the batch shape tree learning
// plans once per level.
func BenchmarkPlanBatch(b *testing.B) {
	fav, err := datagen.Favorita(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mi", func(b *testing.B) { benchPlan(b, fav, workloads.MutualInfo(fav)) })

	ret, err := datagen.Retailer(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	eng := moo.NewEngineWithTree(ret.DB, ret.Tree, moo.DefaultOptions())
	spec := workloads.RTSpec(ret)
	spec.MaxDepth = 3
	var level []*query.Query
	if _, err := tree.LearnWith(func(queries []*query.Query) ([]*moo.ViewData, error) {
		level = queries
		res, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		return res.Results, nil
	}, ret.DB, spec); err != nil {
		b.Fatal(err)
	}
	b.Run("tree_level", func(b *testing.B) { benchPlan(b, ret, level) })
}

func benchPlan(b *testing.B, ds *datagen.Dataset, queries []*query.Query) {
	opts := core.PlanOptions{MultiRoot: true, MultiOutput: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(ds.Tree, queries, opts); err != nil {
			b.Fatal(err)
		}
	}
}
