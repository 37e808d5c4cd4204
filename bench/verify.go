package main

import (
	"fmt"
	"math"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/datagen"
)

// verifyScale is the datagen scale of the database on which batch outputs
// are compared with the baseline engine, which materializes the join and
// scans it once per query: 16.8 k Inventory rows, 25 k Sales rows.
const verifyScale = 0.0002

// relTol is the relative tolerance of value comparisons: maintained sums
// and recomputed sums add the same terms in different orders.
const relTol = 1e-9

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func keyOf(packed string) []int64 {
	out := make([]int64, data.KeyLen(packed))
	data.UnpackKey(packed, out)
	return out
}

// viewRows indexes a view's rows by packed group-by key.
func viewRows(v *lmfao.Result) map[string][]float64 {
	out := make(map[string][]float64, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		out[data.PackKey(v.Key(i)...)] = v.Vals[i*v.Stride : (i+1)*v.Stride]
	}
	return out
}

// diffRows compares the first cols columns of got's rows with want's within
// relTol, and every column from exactFrom on exactly (hidden tuple counts).
func diffRows(got, want map[string][]float64, cols, exactFrom int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("group %v missing", keyOf(k))
		}
		for c := 0; c < cols; c++ {
			if c >= exactFrom && g[c] != w[c] {
				return fmt.Errorf("group %v column %d: %v, want exactly %v", keyOf(k), c, g[c], w[c])
			}
			if !closeEnough(g[c], w[c]) {
				return fmt.Errorf("group %v column %d: %v, want %v", keyOf(k), c, g[c], w[c])
			}
		}
	}
	return nil
}

// checkAgainstBaseline builds the named dataset at the verify scale from the
// run's seed, evaluates the batches on the engine and on the
// materialize-then-scan baseline, and counts one check per query.
func checkAgainstBaseline(r *run, dataset string, batches func(*datagen.Dataset) ([][]*lmfao.Query, error)) error {
	build, err := datagen.ByName(dataset)
	if err != nil {
		return err
	}
	ds, err := build(datagen.Config{Scale: math.Min(r.cfg.scale, verifyScale), Seed: r.cfg.seed})
	if err != nil {
		return err
	}
	bs, err := batches(ds)
	if err != nil {
		return err
	}
	eng := lmfao.NewEngineWithTree(ds.DB, ds.Tree, lmfao.DefaultOptions())
	base := baseline.NewWithTree(ds.DB, ds.Tree)
	for _, queries := range bs {
		res, err := eng.Run(queries)
		if err != nil {
			return err
		}
		want, err := base.Run(queries)
		if err != nil {
			return err
		}
		for qi, q := range queries {
			err := diffRows(viewRows(res.Results[qi]), want[qi].Rows, q.NumCols(), q.NumCols())
			r.check(err == nil, "verify %s/%s against baseline: %v", dataset, q.Name, err)
		}
	}
	return nil
}

// checkMaintained compares the results a session serves with a fresh engine
// run over db, which must hold the database as the update stream left it.
// Values agree within relTol; the hidden tuple counts, and every column of a
// query with monoid aggregates, agree exactly. One check per query.
func checkMaintained(r *run, label string, served lmfao.Queryable, db *lmfao.Database, queries []*lmfao.Query) error {
	opts := lmfao.DefaultOptions()
	opts.TrackCounts = true
	eng, err := lmfao.NewEngine(db, opts)
	if err != nil {
		return err
	}
	fresh, err := eng.Run(queries)
	if err != nil {
		return err
	}
	for qi, q := range queries {
		got := served.Result(qi)
		if got == nil {
			r.check(false, "%s: query %s has no served result", label, q.Name)
			continue
		}
		exactFrom := q.NumCols()
		if len(q.MonoidAggs) > 0 {
			exactFrom = 0
		}
		err := diffRows(viewRows(got), viewRows(fresh.Results[qi]), got.Stride, exactFrom)
		r.check(err == nil, "%s: maintained %s against a fresh run: %v", label, q.Name, err)
	}
	return nil
}

// cloneDatabase copies db (attributes in id order, so queries and specs stay
// valid against the copy), replacing the named relation's columns.
func cloneDatabase(db *lmfao.Database, replace string, cols []data.Column) (*lmfao.Database, error) {
	out := lmfao.NewDatabase()
	for i := 0; i < db.NumAttrs(); i++ {
		a := db.Attribute(lmfao.AttrID(i))
		out.Attr(a.Name, a.Kind)
	}
	for _, rel := range db.Relations() {
		c := cols
		if rel.Name != replace {
			c = copyColumns(rel.Cols)
		}
		if err := out.AddRelation(lmfao.NewRelation(rel.Name, append([]lmfao.AttrID(nil), rel.Attrs...), c)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
