package lmfao_test

import (
	"fmt"
	"math"
	"testing"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/workloads"
)

// The master end-to-end test: every paper workload over every synthetic
// dataset, the full engine against the brute-force baseline.
func TestAllWorkloadsAllDatasetsMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := datagen.Config{Scale: 0.0001, Seed: 99}
	for _, name := range datagen.All() {
		build, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := baseline.NewWithTree(ds.DB, ds.Tree)
		flat, err := base.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		for _, wl := range workloads.Names() {
			t.Run(name+"/"+wl, func(t *testing.T) {
				batch, err := workloads.ByName(wl, ds)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(batch)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range batch {
					want, err := baseline.RunOverFlat(ds.DB, flat, q)
					if err != nil {
						t.Fatal(err)
					}
					diffResults(t, fmt.Sprintf("%s/%s/%s", name, wl, q.Name),
						res.Results[qi], want)
				}
			})
		}
	}
}

func diffResults(t *testing.T, label string, got *moo.ViewData, want *baseline.Result) {
	t.Helper()
	if got.NumRows() != len(want.Rows) {
		t.Errorf("%s: rows %d vs %d", label, got.NumRows(), len(want.Rows))
		return
	}
	for i := 0; i < got.NumRows(); i++ {
		key := data.PackKey(got.Key(i)...)
		wrow, ok := want.Rows[key]
		if !ok {
			t.Errorf("%s: spurious key %v", label, got.Key(i))
			return
		}
		for c := range wrow {
			g := got.Val(i, c)
			d := math.Abs(g - wrow[c])
			if d > 1e-6 && d > 1e-9*math.Max(math.Abs(g), math.Abs(wrow[c])) {
				t.Errorf("%s: key %v col %d: %g vs %g", label, got.Key(i), c, g, wrow[c])
				return
			}
		}
	}
}

// End-to-end application runs over the synthetic datasets (paper §4.2).
func TestEndToEndApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := datagen.Config{Scale: 0.0002, Seed: 7}

	t.Run("linreg-favorita", func(t *testing.T) {
		ds, err := datagen.Favorita(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		spec := workloads.LinRegSpec(ds)
		m, err := lmfao.LearnLinearRegression(eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Iterations == 0 {
			t.Fatal("no optimization steps")
		}
		// The model must beat the predict-the-mean baseline on the
		// training join.
		base := baseline.NewWithTree(ds.DB, ds.Tree)
		flat, err := base.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := m.RMSE(flat)
		if err != nil {
			t.Fatal(err)
		}
		meanRMSE := labelStdDev(flat, spec.Label)
		if rmse >= meanRMSE {
			t.Fatalf("RMSE %g not below mean-predictor %g", rmse, meanRMSE)
		}
	})

	t.Run("regtree-retailer", func(t *testing.T) {
		ds, err := datagen.Retailer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		spec := workloads.RTSpec(ds)
		spec.MinSplit = 100
		m, err := lmfao.LearnDecisionTree(eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Nodes < 3 {
			t.Fatalf("tree did not grow: %d nodes", m.Nodes)
		}
	})

	t.Run("classtree-tpcds", func(t *testing.T) {
		ds, err := datagen.TPCDS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		spec := workloads.CTSpec(ds)
		spec.MinSplit = 200
		m, err := lmfao.LearnDecisionTree(eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		base := baseline.NewWithTree(ds.DB, ds.Tree)
		flat, err := base.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Accuracy(flat)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.5 {
			t.Fatalf("accuracy = %g", acc)
		}
	})

	t.Run("chowliu-favorita", func(t *testing.T) {
		ds, err := datagen.Favorita(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		attrs := ds.MIAttrs[:6]
		res, edges, err := lmfao.LearnChowLiuTree(eng, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != len(attrs)-1 {
			t.Fatalf("edges = %d", len(edges))
		}
		if res.Total <= 0 {
			t.Fatal("empty join")
		}
	})

	t.Run("cube-yelp", func(t *testing.T) {
		ds, err := datagen.Yelp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
		res, _, err := lmfao.ComputeDataCube(eng, lmfao.CubeSpec{
			Dims: ds.CubeDims, Measures: ds.CubeMeasures,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cuboids) != 8 {
			t.Fatalf("cuboids = %d", len(res.Cuboids))
		}
		apex, ok := res.Lookup(lmfao.CubeAll, lmfao.CubeAll, lmfao.CubeAll)
		if !ok || apex[0] <= 0 {
			t.Fatalf("apex = %v ok=%v", apex, ok)
		}
	})
}

func labelStdDev(flat *data.Relation, label data.AttrID) float64 {
	col, _ := flat.Col(label)
	n := float64(flat.Len())
	var s, ss float64
	for i := 0; i < flat.Len(); i++ {
		v := col.Float(i)
		s += v
		ss += v * v
	}
	return math.Sqrt(ss/n - (s/n)*(s/n))
}

// The Figure 5 ablation configurations must all produce identical covar
// matrices on a real dataset shape.
func TestAblationLevelsAgreeOnFavorita(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ds, err := datagen.Favorita(datagen.Config{Scale: 0.0001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := workloads.CovarMatrix(ds)
	variants := []moo.Options{
		{Threads: 1},
		{Compiled: true, Threads: 1},
		{Compiled: true, MultiOutput: true, Threads: 1},
		{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1},
		{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 4},
	}
	var ref []*moo.ViewData
	for vi, opts := range variants {
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
		res, err := eng.Run(batch)
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if vi == 0 {
			ref = res.Results
			continue
		}
		for qi := range batch {
			a, b := ref[qi], res.Results[qi]
			if a.NumRows() != b.NumRows() {
				t.Fatalf("variant %d query %d: rows %d vs %d", vi, qi, a.NumRows(), b.NumRows())
			}
			for i := 0; i < a.NumRows(); i++ {
				j := b.Lookup(a.Key(i)...)
				if j < 0 {
					t.Fatalf("variant %d query %d: missing key %v", vi, qi, a.Key(i))
				}
				for c := 0; c < a.Stride; c++ {
					if d := math.Abs(a.Val(i, c) - b.Val(j, c)); d > 1e-6*(1+math.Abs(a.Val(i, c))) {
						t.Fatalf("variant %d query %d col %d: %g vs %g",
							vi, qi, c, a.Val(i, c), b.Val(j, c))
					}
				}
			}
		}
	}
}
