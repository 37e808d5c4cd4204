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

// BenchmarkApplyRetailer measures fact-table maintenance: 1 % Inventory
// deltas against the covar batch.
func BenchmarkApplyRetailer(b *testing.B) {
	benchApply(b, 0.001, "Inventory")
}

// BenchmarkApplyRetailerDimSemiJoin measures dimension-table maintenance,
// the semi-join restriction's target case.
func BenchmarkApplyRetailerDimSemiJoin(b *testing.B) {
	benchApply(b, 0.001, "Location")
}

// BenchmarkApplyRetailerFactFullScan measures fact-table maintenance at a
// scale where a 1 % Inventory delta touches most (locn, dateid) keys, so
// the step at Weather takes the full-scan fallback: its time is a whole
// Weather scan per Apply, as in the durable_stream benchmark workload.
func BenchmarkApplyRetailerFactFullScan(b *testing.B) {
	if benchApply(b, 0.0025, "Inventory") == 0 {
		b.Fatal("no maintenance step took the full-scan fallback")
	}
}

// benchApply times Session.Apply of 1 % deltas against relation rel of the
// retailer dataset at scale, maintaining the covar batch, reports the
// full-scan steps per Apply and returns their total.
func benchApply(b *testing.B, scale float64, rel string) int {
	ds, err := datagen.Retailer(datagen.Config{Scale: scale, Seed: 2019})
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
	r := ds.DB.Relation(rel)
	fullScans := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDelta(rng, r, 0.01)
		b.StartTimer()
		stats, err := sess.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range stats {
			fullScans += st.FullScanGroups
		}
	}
	b.ReportMetric(float64(fullScans)/float64(b.N), "fullscans/op")
	return fullScans
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
