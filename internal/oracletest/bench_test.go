package oracletest

import (
	"math/rand"
	"testing"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/workloads"
)

func BenchmarkApplyRetailer(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.001, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	queries := workloads.CovarMatrix(ds)
	opts := moo.DefaultOptions()
	opts.TrackCounts = true
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
	sess, err := lmfao.NewSessionWithEngine(eng, queries)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel := ds.DB.Relation("Inventory")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := benchDelta(rng, rel, 0.01)
		if _, err := sess.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyRetailerDimSemiJoin measures dimension-table maintenance,
// the semi-join restriction's target case.
func BenchmarkApplyRetailerDimSemiJoin(b *testing.B) {
	ds, err := datagen.Retailer(datagen.Config{Scale: 0.001, Seed: 2019})
	if err != nil {
		b.Fatal(err)
	}
	queries := workloads.CovarMatrix(ds)
	opts := moo.DefaultOptions()
	opts.TrackCounts = true
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
	sess, err := lmfao.NewSessionWithEngine(eng, queries)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel := ds.DB.Relation("Location")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := benchDelta(rng, rel, 0.01)
		if _, err := sess.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDelta(rng *rand.Rand, rel *data.Relation, frac float64) lmfao.Update {
	n := int(frac * float64(rel.Len()))
	if n < 2 {
		n = 2 // small relations still get a non-empty delta
	}
	nIns, nDel := n/2, n-n/2
	ins := make([]data.Column, len(rel.Cols))
	del := make([]data.Column, len(rel.Cols))
	rows := make([]int, nIns)
	for i := range rows {
		rows[i] = rng.Intn(rel.Len())
	}
	idx := rng.Perm(rel.Len())[:nDel]
	for ci, c := range rel.Cols {
		if c.IsInt() {
			iv := make([]int64, nIns)
			for i, r := range rows {
				iv[i] = c.Ints[r]
			}
			dv := make([]int64, nDel)
			for i, r := range idx {
				dv[i] = c.Ints[r]
			}
			ins[ci], del[ci] = data.NewIntColumn(iv), data.NewIntColumn(dv)
		} else {
			iv := make([]float64, nIns)
			for i, r := range rows {
				iv[i] = c.Floats[r]
			}
			dv := make([]float64, nDel)
			for i, r := range idx {
				dv[i] = c.Floats[r]
			}
			ins[ci], del[ci] = data.NewFloatColumn(iv), data.NewFloatColumn(dv)
		}
	}
	return lmfao.Update{Relation: rel.Name, Inserts: ins, Deletes: del}
}
