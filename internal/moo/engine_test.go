package moo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/query"
)

// ---------------------------------------------------------------------------
// Test databases
// ---------------------------------------------------------------------------

// chainDB: S1(x1,x2,u1), S2(x2,x3,u2), S3(x3,x4,u3) — keys xi, numeric ui.
func chainDB(t testing.TB, rows int, seed int64, dom int) (*data.Database, []data.AttrID, []data.AttrID) {
	t.Helper()
	db := data.NewDatabase()
	keys := make([]data.AttrID, 5)
	for i := 1; i <= 4; i++ {
		keys[i] = db.Attr(fmt.Sprintf("x%d", i), data.Key)
	}
	var nums []data.AttrID
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= 3; i++ {
		u := db.Attr(fmt.Sprintf("u%d", i), data.Numeric)
		nums = append(nums, u)
		a := make([]int64, rows)
		b := make([]int64, rows)
		x := make([]float64, rows)
		for r := 0; r < rows; r++ {
			a[r] = int64(rng.Intn(dom))
			b[r] = int64(rng.Intn(dom))
			x[r] = float64(rng.Intn(10)) + 0.5
		}
		rel := data.NewRelation(fmt.Sprintf("S%d", i),
			[]data.AttrID{keys[i], keys[i+1], u},
			[]data.Column{data.NewIntColumn(a), data.NewIntColumn(b), data.NewFloatColumn(x)})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	return db, keys, nums
}

// starDB: fact F(k1,k2,k3,m) with three dimensions Di(ki, ci, pi) where ci is
// categorical-ish (small key) and pi numeric.
func starDB(t testing.TB, factRows int, seed int64) (*data.Database, map[string]data.AttrID) {
	t.Helper()
	db := data.NewDatabase()
	ids := map[string]data.AttrID{}
	rng := rand.New(rand.NewSource(seed))
	dims := 3
	dimSize := 8
	factAttrs := make([]data.AttrID, 0, dims+1)
	factCols := make([]data.Column, 0, dims+1)
	for d := 0; d < dims; d++ {
		k := db.Attr(fmt.Sprintf("k%d", d), data.Key)
		ids[fmt.Sprintf("k%d", d)] = k
		vals := make([]int64, factRows)
		for i := range vals {
			vals[i] = int64(rng.Intn(dimSize))
		}
		factAttrs = append(factAttrs, k)
		factCols = append(factCols, data.NewIntColumn(vals))
	}
	m := db.Attr("m", data.Numeric)
	ids["m"] = m
	mv := make([]float64, factRows)
	for i := range mv {
		mv[i] = float64(rng.Intn(20)) + 0.25
	}
	factAttrs = append(factAttrs, m)
	factCols = append(factCols, data.NewFloatColumn(mv))
	if err := db.AddRelation(data.NewRelation("F", factAttrs, factCols)); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dims; d++ {
		k := ids[fmt.Sprintf("k%d", d)]
		c := db.Attr(fmt.Sprintf("c%d", d), data.Key)
		p := db.Attr(fmt.Sprintf("p%d", d), data.Numeric)
		ids[fmt.Sprintf("c%d", d)] = c
		ids[fmt.Sprintf("p%d", d)] = p
		kv := make([]int64, dimSize)
		cv := make([]int64, dimSize)
		pv := make([]float64, dimSize)
		for i := 0; i < dimSize; i++ {
			kv[i] = int64(i)
			cv[i] = int64(rng.Intn(3))
			pv[i] = float64(rng.Intn(7)) + 0.5
		}
		rel := data.NewRelation(fmt.Sprintf("D%d", d),
			[]data.AttrID{k, c, p},
			[]data.Column{data.NewIntColumn(kv), data.NewIntColumn(cv), data.NewFloatColumn(pv)})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	return db, ids
}

// ---------------------------------------------------------------------------
// Equivalence helpers
// ---------------------------------------------------------------------------

func viewToMap(v *ViewData) map[string][]float64 {
	out := make(map[string][]float64, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		key := data.PackKey(v.Key(i)...)
		row := make([]float64, v.Stride)
		for c := 0; c < v.Stride; c++ {
			row[c] = v.Val(i, c)
		}
		out[key] = row
	}
	return out
}

func compareResults(t *testing.T, label string, got *ViewData, want *baseline.Result) {
	t.Helper()
	gm := viewToMap(got)
	if len(gm) != len(want.Rows) {
		t.Errorf("%s: got %d rows, want %d", label, len(gm), len(want.Rows))
	}
	for key, wrow := range want.Rows {
		grow, ok := gm[key]
		if !ok {
			t.Errorf("%s: missing key %v", label, unpack(key))
			continue
		}
		for c := range wrow {
			if !closeEnough(grow[c], wrow[c]) {
				t.Errorf("%s: key %v col %d: got %g want %g", label, unpack(key), c, grow[c], wrow[c])
			}
		}
	}
	for key := range gm {
		if _, ok := want.Rows[key]; !ok {
			t.Errorf("%s: spurious key %v", label, unpack(key))
		}
	}
}

func unpack(key string) []int64 {
	out := make([]int64, data.KeyLen(key))
	data.UnpackKey(key, out)
	return out
}

func closeEnough(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= 1e-6 {
		return true
	}
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

var optionVariants = []struct {
	name string
	opts Options
}{
	{"acdc", Options{Threads: 1}},
	{"compiled", Options{Compiled: true, Threads: 1}},
	{"multiout", Options{Compiled: true, MultiOutput: true, Threads: 1}},
	{"multiroot", Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1}},
	{"parallel", Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 3}},
	{"interp-full", Options{MultiOutput: true, MultiRoot: true, Threads: 2}},
}

// checkBatch runs the batch under every option variant and compares each
// against the brute-force baseline.
func checkBatch(t *testing.T, db *data.Database, queries []*query.Query) {
	t.Helper()
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range optionVariants {
		eng, err := NewEngine(db, variant.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(queries)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		for qi := range queries {
			compareResults(t, fmt.Sprintf("%s/%s", variant.name, queries[qi].Name),
				res.Results[qi], want[qi])
		}
	}
}

// ---------------------------------------------------------------------------
// Equivalence tests
// ---------------------------------------------------------------------------

func TestScalarCountChain(t *testing.T) {
	db, _, _ := chainDB(t, 40, 1, 4)
	checkBatch(t, db, []*query.Query{query.NewQuery("count", nil, query.CountAgg())})
}

func TestScalarSumsChain(t *testing.T) {
	db, keys, nums := chainDB(t, 40, 2, 4)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("sums", nil,
			query.SumAgg(nums[0]),
			query.SumAgg(nums[2]),
			query.SumProdAgg(nums[0], nums[2]),
			query.SumPowAgg(nums[1], 2),
			query.SumProdAgg(keys[1], keys[4]),
		),
	})
}

func TestGroupByLocalKey(t *testing.T) {
	db, keys, nums := chainDB(t, 50, 3, 3)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("g2", []data.AttrID{keys[2]}, query.CountAgg(), query.SumAgg(nums[1])),
	})
}

func TestGroupBySpanningRelations(t *testing.T) {
	db, keys, nums := chainDB(t, 45, 4, 3)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("span", []data.AttrID{keys[1], keys[4]},
			query.CountAgg(), query.SumAgg(nums[1])),
	})
}

func TestGroupByThreeWaySpan(t *testing.T) {
	db, keys, _ := chainDB(t, 30, 5, 3)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("span3", []data.AttrID{keys[1], keys[3], keys[4]}, query.CountAgg()),
	})
}

func TestIndicatorsAndPowers(t *testing.T) {
	db, keys, nums := chainDB(t, 60, 6, 4)
	cond := query.NewAggregate("cond",
		query.NewTerm(
			query.IndicatorF(nums[0], query.LE, 5),
			query.IndicatorF(nums[2], query.GT, 3),
			query.IdentF(nums[1]),
		))
	multi := query.NewAggregate("multi",
		query.NewTerm(query.PowF(nums[0], 2)).Scaled(2.5),
		query.NewTerm(query.IdentF(nums[0]), query.IdentF(nums[1])).Scaled(-1),
	)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("ind", []data.AttrID{keys[3]}, cond, multi),
	})
}

func TestMixedBatchManyQueries(t *testing.T) {
	db, keys, nums := chainDB(t, 50, 7, 3)
	var qs []*query.Query
	for i := 1; i <= 4; i++ {
		qs = append(qs, query.NewQuery(fmt.Sprintf("q%d", i),
			[]data.AttrID{keys[i]}, query.CountAgg(), query.SumAgg(nums[0])))
	}
	qs = append(qs, query.NewQuery("pairs", []data.AttrID{keys[1], keys[2]},
		query.SumProdAgg(nums[0], nums[1])))
	qs = append(qs, query.NewQuery("scalar", nil, query.SumPowAgg(nums[2], 3)))
	checkBatch(t, db, qs)
}

func TestStarSchemaBatch(t *testing.T) {
	db, ids := starDB(t, 80, 8)
	checkBatch(t, db, []*query.Query{
		query.NewQuery("bydim", []data.AttrID{ids["c0"]},
			query.CountAgg(), query.SumAgg(ids["m"]), query.SumProdAgg(ids["m"], ids["p1"])),
		query.NewQuery("crossdims", []data.AttrID{ids["c0"], ids["c2"]},
			query.SumAgg(ids["p1"])),
		query.NewQuery("factgb", []data.AttrID{ids["k1"]},
			query.SumProdAgg(ids["p0"], ids["p2"])),
		query.NewQuery("total", nil, query.CountAgg()),
	})
}

func TestEmptyJoin(t *testing.T) {
	// Keys never match across S1 and S2: the join is empty.
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	c := db.Attr("c", data.Key)
	r1 := data.NewRelation("R1", []data.AttrID{a, b}, []data.Column{
		data.NewIntColumn([]int64{1, 2}), data.NewIntColumn([]int64{10, 11})})
	r2 := data.NewRelation("R2", []data.AttrID{b, c}, []data.Column{
		data.NewIntColumn([]int64{20, 21}), data.NewIntColumn([]int64{1, 2})})
	if err := db.AddRelation(r1); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(r2); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, db, []*query.Query{
		query.NewQuery("count", nil, query.CountAgg()),
		query.NewQuery("bya", []data.AttrID{a}, query.CountAgg()),
	})
}

func TestPartialJoinPresence(t *testing.T) {
	// Some keys of R1 have no partner in R2: group-by rows must appear only
	// for joining keys, and indicator aggregates that evaluate to zero must
	// still yield (zero-valued) rows for joining keys.
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	x := db.Attr("x", data.Numeric)
	r1 := data.NewRelation("R1", []data.AttrID{a, b}, []data.Column{
		data.NewIntColumn([]int64{1, 2, 3}), data.NewIntColumn([]int64{5, 6, 7})})
	r2 := data.NewRelation("R2", []data.AttrID{b, x}, []data.Column{
		data.NewIntColumn([]int64{5, 5, 6}), data.NewFloatColumn([]float64{100, 200, 300})})
	if err := db.AddRelation(r1); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(r2); err != nil {
		t.Fatal(err)
	}
	zero := query.NewAggregate("neverTrue",
		query.NewTerm(query.IndicatorF(x, query.GT, 1e9)))
	checkBatch(t, db, []*query.Query{
		query.NewQuery("bya", []data.AttrID{a}, query.CountAgg(), zero),
	})
}

func TestDuplicateRows(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	b := db.Attr("b", data.Key)
	x := db.Attr("x", data.Numeric)
	r1 := data.NewRelation("R1", []data.AttrID{a, b}, []data.Column{
		data.NewIntColumn([]int64{1, 1, 1, 2}), data.NewIntColumn([]int64{5, 5, 5, 5})})
	r2 := data.NewRelation("R2", []data.AttrID{b, x}, []data.Column{
		data.NewIntColumn([]int64{5, 5}), data.NewFloatColumn([]float64{2, 3})})
	if err := db.AddRelation(r1); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(r2); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, db, []*query.Query{
		query.NewQuery("q", []data.AttrID{a}, query.CountAgg(), query.SumAgg(x)),
	})
}

func TestSingleRelation(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	x := db.Attr("x", data.Numeric)
	rel := data.NewRelation("R", []data.AttrID{a, x}, []data.Column{
		data.NewIntColumn([]int64{1, 1, 2, 3}),
		data.NewFloatColumn([]float64{1.5, 2.5, 3.5, 4.5})})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, db, []*query.Query{
		query.NewQuery("bya", []data.AttrID{a}, query.SumAgg(x), query.CountAgg()),
		query.NewQuery("all", nil, query.SumPowAgg(x, 2)),
	})
}

func TestCustomAndDynamicFactors(t *testing.T) {
	db, keys, nums := chainDB(t, 40, 9, 3)
	sq := query.CustomF("sq", nums[1], func(v float64) float64 { return v * v })
	dyn := query.DynamicF("thr", nums[0], func(v float64) float64 {
		if v <= 4 {
			return 1
		}
		return 0
	})
	checkBatch(t, db, []*query.Query{
		query.NewQuery("udf", []data.AttrID{keys[2]},
			query.NewAggregate("a", query.NewTerm(sq, dyn))),
	})
}

// Randomized property test: random chain databases, random batches, all
// option variants must agree with brute force.
func TestRandomBatchesEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	for trial := 0; trial < 12; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		db, keys, nums := chainDB(t, 20+rng.Intn(40), seed, 2+rng.Intn(3))
		var qs []*query.Query
		nq := 1 + rng.Intn(4)
		for qi := 0; qi < nq; qi++ {
			var gb []data.AttrID
			for _, k := range keys[1:] {
				if rng.Intn(3) == 0 {
					gb = append(gb, k)
				}
			}
			var aggs []query.Aggregate
			na := 1 + rng.Intn(3)
			for ai := 0; ai < na; ai++ {
				var fs []query.Factor
				nf := rng.Intn(3)
				for fi := 0; fi < nf; fi++ {
					attr := nums[rng.Intn(len(nums))]
					switch rng.Intn(4) {
					case 0:
						fs = append(fs, query.IdentF(attr))
					case 1:
						fs = append(fs, query.PowF(attr, 2))
					case 2:
						fs = append(fs, query.IndicatorF(attr, query.LE, float64(rng.Intn(10))))
					case 3:
						fs = append(fs, query.IdentF(keys[1+rng.Intn(4)]))
					}
				}
				aggs = append(aggs, query.NewAggregate(fmt.Sprintf("a%d", ai), query.NewTerm(fs...)))
			}
			qs = append(qs, query.NewQuery(fmt.Sprintf("q%d", qi), gb, aggs...))
		}
		checkBatch(t, db, qs)
	}
}

// ---------------------------------------------------------------------------
// Unit tests for ViewData and engine plumbing
// ---------------------------------------------------------------------------

func TestViewDataAccessors(t *testing.T) {
	b := newViewBuilder([]data.AttrID{3, 7}, 2, false, nil)
	r := b.row([]int64{1, 2})
	b.add(r, 0, 5)
	b.add(r, 1, 7)
	r2 := b.row([]int64{1, 3})
	b.add(r2, 0, 9)
	// Same key returns same row.
	if b.row([]int64{1, 2}) != r {
		t.Fatal("row not deduplicated")
	}
	vd := b.finalize([]data.AttrID{3}) // attr 3 is the consumer key; 7 is extra
	if vd.NumRows() != 2 {
		t.Fatalf("rows = %d", vd.NumRows())
	}
	if got := vd.Extras(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("extras = %v", got)
	}
	if got := vd.SKeyAttrs(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("skey = %v", got)
	}
	lo, hi, ok := vd.bind([]int64{1})
	if !ok || hi-lo != 2 {
		t.Fatalf("bind = %d..%d ok=%v", lo, hi, ok)
	}
	if _, _, ok := vd.bind([]int64{9}); ok {
		t.Fatal("bind found absent key")
	}
	if i := vd.Lookup(1, 2); i < 0 || vd.Val(i, 0) != 5 || vd.Val(i, 1) != 7 {
		t.Fatalf("Lookup(1,2) = %d", i)
	}
	if vd.Lookup(1) != -1 {
		t.Fatal("Lookup with wrong arity should return -1")
	}
	if vd.Lookup(8, 8) != -1 {
		t.Fatal("Lookup of absent key should return -1")
	}
	if vd.SizeBytes() <= 0 {
		t.Fatal("SizeBytes = 0")
	}
	if vd.String() == "" {
		t.Fatal("String empty")
	}
	if vd.KeyAt(0, 0) != 1 {
		t.Fatalf("KeyAt = %d", vd.KeyAt(0, 0))
	}
}

func TestViewBuilderMerge(t *testing.T) {
	a := newViewBuilder([]data.AttrID{1}, 1, false, nil)
	b := newViewBuilder([]data.AttrID{1}, 1, false, nil)
	a.add(a.row([]int64{1}), 0, 2)
	b.add(b.row([]int64{1}), 0, 3)
	b.add(b.row([]int64{2}), 0, 5)
	a.merge(b)
	vd := a.finalize(nil)
	if vd.NumRows() != 2 {
		t.Fatalf("rows = %d", vd.NumRows())
	}
	if i := vd.Lookup(1); vd.Val(i, 0) != 5 {
		t.Fatalf("merged value = %g", vd.Val(i, 0))
	}
}

func TestEngineAccessors(t *testing.T) {
	db, _, _ := chainDB(t, 10, 11, 3)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if eng.DB() != db || eng.Tree() == nil {
		t.Fatal("accessors broken")
	}
	if eng.Options().Threads < 1 {
		t.Fatal("threads not normalized")
	}
}

func TestEngineRejectsBadQuery(t *testing.T) {
	db, _, _ := chainDB(t, 10, 12, 3)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := query.NewQuery("bad", nil, query.SumAgg(data.AttrID(99)))
	if _, err := eng.Run([]*query.Query{bad}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestRunReportsStats(t *testing.T) {
	db, keys, _ := chainDB(t, 30, 13, 3)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*query.Query{
		query.NewQuery("q", []data.AttrID{keys[2]}, query.CountAgg()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.OutputBytes <= 0 || res.Elapsed <= 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

func TestRepeatedRunsReuseSortCache(t *testing.T) {
	db, keys, _ := chainDB(t, 30, 14, 3)
	eng, err := NewEngine(db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := []*query.Query{query.NewQuery("q", []data.AttrID{keys[2]}, query.CountAgg())}
	r1, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if viewToMap(r1.Results[0])[data.PackKey(r1.Results[0].Key(0)...)][0] !=
		viewToMap(r2.Results[0])[data.PackKey(r2.Results[0].Key(0)...)][0] {
		t.Fatal("repeated runs disagree")
	}
}
