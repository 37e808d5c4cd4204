package linreg_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml/linreg"
	"repro/internal/moo"
	"repro/internal/workloads"
)

// BenchmarkLearnRetailer times the optimizer alone: ridge fits over one
// retailer covar matrix at scale 0.001, built once. iters/op is the number of
// steps per fit; a fit that stops at the cap reads DefaultOptim's MaxIters.
func BenchmarkLearnRetailer(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.001, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
	spec := workloads.LinRegSpec(ds)
	cm, _, err := linreg.BuildCovar(eng, spec)
	if err != nil {
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := linreg.LearnCG(cm, spec, linreg.DefaultOptim())
		if err != nil {
			b.Fatal(err)
		}
		iters += m.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
