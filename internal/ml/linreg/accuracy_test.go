package linreg_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/ml/linreg"
	"repro/internal/moo"
	"repro/internal/workloads"
)

// TestCGReachesClosedForm requires the default fit to land within 10⁻⁹
// relative of the closed-form loss, and to say it converged, on a schema
// whose feature scales span seven orders of magnitude and on the generated
// retailer and favorita datasets.
func TestCGReachesClosedForm(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (*moo.Engine, linreg.FeatureSpec)
	}{
		{"badly-scaled", badlyScaled},
		{"retailer", generated(datagen.Retailer)},
		{"favorita", generated(datagen.Favorita)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, spec := c.build(t)
			cm, _, err := linreg.BuildCovar(eng, spec)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := linreg.LearnCG(cm, spec, linreg.DefaultOptim())
			if err != nil {
				t.Fatal(err)
			}
			cf, err := linreg.LearnClosedForm(cm, spec)
			if err != nil {
				t.Fatal(err)
			}
			gap := math.Abs(cg.FinalLoss-cf.FinalLoss) / math.Abs(cf.FinalLoss)
			t.Logf("%d features: %d steps, relative gap %.3g", len(cm.Features), cg.Iterations, gap)
			if gap > 1e-9 || !cg.Converged {
				t.Fatalf("%d features: CG loss %.12g after %d steps (converged %v), closed form %.12g: relative gap %.3g",
					len(cm.Features), cg.FinalLoss, cg.Iterations, cg.Converged, cf.FinalLoss, gap)
			}
		})
	}
}

func generated(gen func(datagen.Config) (*datagen.Dataset, error)) func(t *testing.T) (*moo.Engine, linreg.FeatureSpec) {
	return func(t *testing.T) (*moo.Engine, linreg.FeatureSpec) {
		ds, err := gen(datagen.Config{Scale: 0.0002, Seed: 2019})
		if err != nil {
			t.Fatal(err)
		}
		return moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions()), workloads.LinRegSpec(ds)
	}
}

// badlyScaled builds Fact(k, c, x1, x2, x3, y) ⋈ Dim(k, z): continuous
// features of scale 10⁻³, 1, 10² (off-centre) and 10⁴ (off-centre, on the
// dimension), and an 80-valued one-hot c.
func badlyScaled(t *testing.T) (*moo.Engine, linreg.FeatureSpec) {
	rng := rand.New(rand.NewSource(5))
	db := data.NewDatabase()
	k := db.Attr("k", data.Key)
	c := db.Attr("c", data.Categorical)
	x1 := db.Attr("x1", data.Numeric)
	x2 := db.Attr("x2", data.Numeric)
	x3 := db.Attr("x3", data.Numeric)
	z := db.Attr("z", data.Numeric)
	y := db.Attr("y", data.Numeric)

	const keys, cats, n = 30, 80, 3000
	zv := make([]float64, keys)
	for i := range zv {
		zv[i] = 5e4 + 1e4*rng.NormFloat64()
	}
	shift := make([]float64, cats)
	for i := range shift {
		shift[i] = rng.NormFloat64()
	}
	kv, cv := make([]int64, n), make([]int64, n)
	x1v, x2v, x3v, yv := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		kv[i] = int64(rng.Intn(keys))
		cv[i] = int64(rng.Intn(cats))
		x1v[i] = 1e-3 * rng.NormFloat64()
		x2v[i] = rng.NormFloat64()
		x3v[i] = 300 + 1e2*rng.NormFloat64()
		yv[i] = 1 + 500*x1v[i] + 0.5*x2v[i] + 0.01*x3v[i] + 1e-4*zv[kv[i]] +
			shift[cv[i]] + 0.1*rng.NormFloat64()
	}
	for _, rel := range []*data.Relation{
		data.NewRelation("Dim", []data.AttrID{k, z}, []data.Column{
			data.NewIntColumn(seq(keys)), data.NewFloatColumn(zv)}),
		data.NewRelation("Fact", []data.AttrID{k, c, x1, x2, x3, y}, []data.Column{
			data.NewIntColumn(kv), data.NewIntColumn(cv), data.NewFloatColumn(x1v),
			data.NewFloatColumn(x2v), data.NewFloatColumn(x3v), data.NewFloatColumn(yv)}),
	} {
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := moo.NewEngine(db, moo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng, linreg.FeatureSpec{
		Continuous:  []data.AttrID{x1, x2, x3, z},
		Categorical: []data.AttrID{c},
		Label:       y,
		Lambda:      1e-3,
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
