package moo

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/query"
)

// TestScanSkipsUnboundLookups pins the skip semantics of unbound lookup
// slots: F(k, x) has x = 0 rows exactly at the keys missing from D(k, y), so
// the leaf sum of ln x is -Inf wherever D's view binds nothing. Those
// contributions must vanish, as the join drops the rows; a scan that
// multiplied by 0 in place of the unbound lookup would produce
// 0 × -Inf = NaN. Checked against the baseline for every option variant,
// with tuple counts off and on, and after an Apply inserting one more
// unmatched x = 0 row.
func TestScanSkipsUnboundLookups(t *testing.T) {
	build := func() (*data.Database, data.AttrID, data.AttrID, data.AttrID) {
		db := data.NewDatabase()
		k := db.Attr("k", data.Key)
		x := db.Attr("x", data.Numeric)
		y := db.Attr("y", data.Numeric)
		for _, rel := range []*data.Relation{
			data.NewRelation("F", []data.AttrID{k, x}, []data.Column{
				data.NewIntColumn([]int64{0, 0, 1, 2, 3, 4, 5, 4}),
				data.NewFloatColumn([]float64{1.5, 2, 3, 0.5, 4, 0, 0, 0})}),
			data.NewRelation("D", []data.AttrID{k, y}, []data.Column{
				data.NewIntColumn([]int64{0, 1, 1, 2, 3}),
				data.NewFloatColumn([]float64{2, 3, 4, 0.5, 1.25})}),
		} {
			if err := db.AddRelation(rel); err != nil {
				t.Fatal(err)
			}
		}
		return db, k, x, y
	}
	check := func(label string, db *data.Database, res *BatchResult, queries []*query.Query) {
		t.Helper()
		base, err := baseline.New(db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			compareResults(t, label+"/"+q.Name, res.Results[qi], want[qi])
		}
	}
	for _, counts := range []bool{false, true} {
		for _, v := range optionVariants {
			db, k, x, y := build()
			lnx := func() query.Aggregate { return query.NewAggregate("lnx", query.NewTerm(query.LogF(x))) }
			lnxy := func() query.Aggregate {
				return query.NewAggregate("lnxy", query.NewTerm(query.LogF(x), query.IdentF(y)))
			}
			queries := []*query.Query{
				query.NewQuery("scalar", nil, lnx(), lnxy(), query.CountAgg()),
				query.NewQuery("byk", []data.AttrID{k}, lnx(), lnxy(), query.CountAgg()),
				query.NewQuery("sumy", []data.AttrID{k}, query.SumAgg(y)),
			}
			opts := v.opts
			opts.TrackCounts = counts
			eng, err := NewEngine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(queries)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			label := fmt.Sprintf("%s/counts=%v", v.name, counts)
			check(label, db, res, queries)
			if !counts {
				continue
			}
			d := data.Delta{Relation: "F", Inserts: []data.Column{
				data.NewIntColumn([]int64{6}), data.NewFloatColumn([]float64{0})}}
			if err := db.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if res, _, err = eng.Apply(res, d); err != nil {
				t.Fatalf("%s: Apply: %v", label, err)
			}
			check(label+"/applied", db, res, queries)
		}
	}
}
