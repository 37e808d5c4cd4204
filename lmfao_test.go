package lmfao_test

import (
	"math"
	"testing"

	lmfao "repro"
	"repro/internal/data"
)

// publicAPIDB builds a two-relation database through the public facade only.
func publicAPIDB(t *testing.T) (*lmfao.Database, lmfao.AttrID, lmfao.AttrID, lmfao.AttrID) {
	t.Helper()
	db := lmfao.NewDatabase()
	store := db.Attr("store", lmfao.Key)
	city := db.Attr("city", lmfao.Categorical)
	sales := db.Attr("sales", lmfao.Numeric)

	stores := lmfao.NewRelation("Stores",
		[]lmfao.AttrID{store, city},
		[]lmfao.Column{
			lmfao.IntColumn([]int64{0, 1, 2, 3}),
			lmfao.IntColumn([]int64{0, 0, 1, 1}),
		})
	if err := db.AddRelation(stores); err != nil {
		t.Fatal(err)
	}
	tx := lmfao.NewRelation("Sales",
		[]lmfao.AttrID{store, sales},
		[]lmfao.Column{
			lmfao.IntColumn([]int64{0, 0, 1, 2, 3, 3}),
			lmfao.FloatColumn([]float64{10, 20, 30, 40, 50, 60}),
		})
	if err := db.AddRelation(tx); err != nil {
		t.Fatal(err)
	}
	return db, store, city, sales
}

func TestPublicAPIQuickstart(t *testing.T) {
	db, _, city, sales := publicAPIDB(t)
	eng, err := lmfao.NewEngine(db, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*lmfao.Query{
		lmfao.NewQuery("by_city", []lmfao.AttrID{city},
			lmfao.Count(), lmfao.Sum(sales)),
		lmfao.NewQuery("total", nil, lmfao.Sum(sales)),
	})
	if err != nil {
		t.Fatal(err)
	}
	byCity := res.Results[0]
	if byCity.NumRows() != 2 {
		t.Fatalf("city groups = %d", byCity.NumRows())
	}
	// city 0 = stores {0,1}: sales 10+20+30 = 60, count 3.
	i := byCity.Lookup(0)
	if i < 0 || byCity.Val(i, 0) != 3 || math.Abs(byCity.Val(i, 1)-60) > 1e-9 {
		t.Fatalf("city 0 row: count=%g sum=%g", byCity.Val(i, 0), byCity.Val(i, 1))
	}
	total := res.Results[1]
	if math.Abs(total.Val(0, 0)-210) > 1e-9 {
		t.Fatalf("total = %g", total.Val(0, 0))
	}
	if res.Plan.Stats.Views == 0 || res.Plan.Stats.Groups == 0 {
		t.Fatal("plan stats empty")
	}
}

func TestPublicAPICustomAggregates(t *testing.T) {
	db, _, city, sales := publicAPIDB(t)
	eng, err := lmfao.NewEngine(db, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// SUM over 2·sales² − sales for sales ≤ 40.
	agg := lmfao.NewAggregate("custom",
		lmfao.NewTerm(lmfao.PowF(sales, 2), lmfao.IndicatorF(sales, lmfao.LE, 40)).Scaled(2),
		lmfao.NewTerm(lmfao.IdentF(sales), lmfao.IndicatorF(sales, lmfao.LE, 40)).Scaled(-1),
	)
	res, err := eng.Run([]*lmfao.Query{lmfao.NewQuery("q", nil, agg)})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, s := range []float64{10, 20, 30, 40} {
		want += 2*s*s - s
	}
	if got := res.Results[0].Val(0, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("custom agg = %g, want %g", got, want)
	}
	_ = city
}

func TestPublicAPIBaseline(t *testing.T) {
	db, _, city, sales := publicAPIDB(t)
	base, err := lmfao.NewBaseline(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := base.Run([]*lmfao.Query{
		lmfao.NewQuery("by_city", []lmfao.AttrID{city}, lmfao.Sum(sales)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].NumRows() != 2 {
		t.Fatalf("baseline groups = %d", res[0].NumRows())
	}
}

func TestPublicAPILinearRegression(t *testing.T) {
	db := lmfao.NewDatabase()
	k := db.Attr("k", lmfao.Key)
	x := db.Attr("x", lmfao.Numeric)
	y := db.Attr("y", lmfao.Numeric)
	n := 200
	kv := make([]int64, n)
	xv := make([]float64, n)
	yv := make([]float64, n)
	for i := 0; i < n; i++ {
		kv[i] = int64(i % 4)
		xv[i] = float64(i%17) * 0.5
		yv[i] = 1 + 3*xv[i]
	}
	if err := db.AddRelation(lmfao.NewRelation("R",
		[]lmfao.AttrID{k, x, y},
		[]lmfao.Column{lmfao.IntColumn(kv), lmfao.FloatColumn(xv), lmfao.FloatColumn(yv)})); err != nil {
		t.Fatal(err)
	}
	eng, err := lmfao.NewEngine(db, lmfao.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := lmfao.LearnLinearRegression(eng, lmfao.LinRegSpec{
		Continuous: []lmfao.AttrID{x}, Label: y, Lambda: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Theta[0]-1) > 0.02 || math.Abs(m.Theta[1]-3) > 0.02 {
		t.Fatalf("theta = %v", m.Theta[:2])
	}
	cf, err := lmfao.LearnLinearRegressionClosedForm(eng, lmfao.LinRegSpec{
		Continuous: []lmfao.AttrID{x}, Label: y, Lambda: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf.Theta[1]-3) > 0.01 {
		t.Fatalf("closed form theta = %v", cf.Theta[:2])
	}
}

func TestPublicAPIKindAliases(t *testing.T) {
	if !lmfao.Key.Discrete() || lmfao.Numeric.Discrete() {
		t.Fatal("kind aliases broken")
	}
	var _ data.AttrID = lmfao.AttrID(0) // alias identity
}
