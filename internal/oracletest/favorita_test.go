package oracletest

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
)

// Favorita monoid-aggregate oracle: the generated Favorita star (Sales fact
// joined with Items, Stores, Oil, Holidays, Transactions) runs a batch that
// mixes sum-semiring aggregates with MIN/MAX, COUNT DISTINCT and top-k under
// a randomized insert+delete stream, checked after every Apply against the
// brute-force baseline and a from-scratch recompute of the full view DAG.
// Sum columns drift under reordered real-valued addition (Approx); the
// monoid columns are integer-derived, so any disagreement there within the
// tolerance is still a real maintenance bug.

// favoritaMonoidQueries builds the measured batch over Favorita's schema:
// per-family MIN/MAX item alongside live sum aggregates, distinct item
// classes per city, top-3 stores per holiday type (pure monoid: exercises
// the hidden placeholder count), and a scalar query folding the whole join.
func favoritaMonoidQueries(ds *datagen.Dataset) []*query.Query {
	family, city, htype := ds.CubeDims[0], ds.CubeDims[1], ds.CubeDims[2]
	store, item := ds.JoinKeys[1], ds.JoinKeys[2]
	class := ds.Categorical[1]

	mmx := query.NewQuery("family_minmax", []data.AttrID{family},
		query.CountAgg(), query.SumAgg(ds.CubeMeasures[0]))
	mmx.MonoidAggs = []query.MonoidAgg{query.MinOf(item), query.MaxOf(item)}

	dst := query.NewQuery("city_distinct", []data.AttrID{city}, query.CountAgg())
	dst.MonoidAggs = []query.MonoidAgg{query.DistinctOf(class)}

	top := query.NewQuery("holiday_top3", []data.AttrID{htype})
	top.MonoidAggs = []query.MonoidAgg{query.TopKOf(store, 3)}

	all := query.NewQuery("global", nil, query.CountAgg())
	all.MonoidAggs = []query.MonoidAgg{query.MaxOf(item), query.DistinctOf(family)}

	return []*query.Query{mmx, dst, top, all}
}

// TestFavoritaMonoidOracle runs the Favorita monoid workload through the
// maintenance oracle: a reduced stream under -short for the PR-fast CI pass,
// the full configuration (larger dataset, 10 Apply rounds, bigger deltas) in
// the dedicated race job.
func TestFavoritaMonoidOracle(t *testing.T) {
	scale, steps, maxRows := 1e-9, 3, 12
	if !testing.Short() {
		scale, steps, maxRows = 0.0002, 10, 32
	}
	build, err := datagen.ByName("favorita")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := build(datagen.Config{Scale: scale, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	opts := moo.DefaultOptions()
	opts.Threads = 2
	opts.TrackCounts = true
	sessionSteps(t, rng, ds.DB, favoritaMonoidQueries(ds), opts, steps, maxRows, Approx)
}
