package moo_test

import (
	"testing"

	"repro/internal/datagen"
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
