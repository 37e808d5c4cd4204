package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		x, t float64
		want bool
		str  string
	}{
		{LE, 1, 1, true, "<="},
		{LE, 2, 1, false, "<="},
		{LT, 1, 1, false, "<"},
		{LT, 0, 1, true, "<"},
		{GE, 1, 1, true, ">="},
		{GE, 0, 1, false, ">="},
		{GT, 2, 1, true, ">"},
		{GT, 1, 1, false, ">"},
		{EQ, 3, 3, true, "="},
		{EQ, 3, 4, false, "="},
		{NE, 3, 4, true, "<>"},
		{NE, 3, 3, false, "<>"},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.x, c.t); got != c.want {
			t.Errorf("%g %s %g = %v, want %v", c.x, c.op, c.t, got, c.want)
		}
		if c.op.String() != c.str {
			t.Errorf("op string = %q want %q", c.op.String(), c.str)
		}
	}
	if CmpOp(99).String() != "?" || CmpOp(99).Compare(1, 2) {
		t.Error("unknown op mishandled")
	}
}

func TestFactorEval(t *testing.T) {
	cases := []struct {
		f    Factor
		x    float64
		want float64
	}{
		{ConstF(3.5), 0, 3.5},
		{IdentF(0), 2.5, 2.5},
		{PowF(0, 1), 3, 3},
		{PowF(0, 2), 3, 9},
		{PowF(0, 3), 2, 8},
		{PowF(0, 5), 2, 32},
		{IndicatorF(0, LE, 5), 4, 1},
		{IndicatorF(0, LE, 5), 6, 0},
		{IndicatorF(0, GT, 5), 6, 1},
		{IndicatorF(0, EQ, 5), 5, 1},
		{InSetF(0, []int64{3, 1, 7}), 3, 1},
		{InSetF(0, []int64{3, 1, 7}), 4, 0},
		{LogF(0), math.E, 1},
		{CustomF("half", 0, func(x float64) float64 { return x / 2 }), 8, 4},
	}
	for _, c := range cases {
		if got := c.f.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.Eval(%g) = %g, want %g", c.f.Signature(), c.x, got, c.want)
		}
	}
}

// Property: Compile agrees with Eval for every factor shape.
func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	factors := []Factor{
		ConstF(2.5), IdentF(0), PowF(0, 1), PowF(0, 2), PowF(0, 3), PowF(0, 4),
		IndicatorF(0, LE, 3), IndicatorF(0, LT, 3), IndicatorF(0, GE, 3),
		IndicatorF(0, GT, 3), IndicatorF(0, EQ, 3), IndicatorF(0, NE, 3),
		InSetF(0, []int64{1, 2}), InSetF(0, []int64{1, 2, 3, 4, 5, 6}),
		LogF(0),
		CustomF("sq", 0, func(x float64) float64 { return x * x }),
	}
	for _, f := range factors {
		fn := f.Compile()
		for i := 0; i < 50; i++ {
			x := float64(rng.Intn(8)) + 0.5
			if got, want := fn(x), f.Eval(x); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: compiled(%g)=%g eval=%g", f.Signature(), x, got, want)
			}
		}
	}
}

func TestInSetSorted(t *testing.T) {
	f := InSetF(0, []int64{9, 1, 5})
	for i := 1; i < len(f.Set); i++ {
		if f.Set[i-1] > f.Set[i] {
			t.Fatal("set not sorted")
		}
	}
}

func TestFactorSignatureDistinguishes(t *testing.T) {
	fs := []Factor{
		ConstF(1), ConstF(2), IdentF(0), IdentF(1), PowF(0, 2), PowF(0, 3),
		IndicatorF(0, LE, 1), IndicatorF(0, LT, 1), IndicatorF(1, LE, 1),
		InSetF(0, []int64{1}), InSetF(0, []int64{2}), LogF(0),
		CustomF("a", 0, nil), CustomF("b", 0, nil), DynamicF("a", 0, nil),
	}
	seen := map[string]int{}
	for i, f := range fs {
		sig := f.Signature()
		if j, dup := seen[sig]; dup {
			t.Errorf("factors %d and %d share signature %q", i, j, sig)
		}
		seen[sig] = i
	}
}

func TestTermSignatureOrderInvariant(t *testing.T) {
	a := NewTerm(IdentF(0), PowF(1, 2))
	b := NewTerm(PowF(1, 2), IdentF(0))
	if a.Signature() != b.Signature() {
		t.Fatal("term signature depends on factor order")
	}
	if a.Signature() == a.Scaled(2).Signature() {
		t.Fatal("coefficient not in signature")
	}
}

func TestAggregateHelpers(t *testing.T) {
	if got := CountAgg(); len(got.Terms) != 1 || len(got.Terms[0].Factors) != 0 {
		t.Fatalf("CountAgg = %+v", got)
	}
	s := SumAgg(3)
	if len(s.Terms[0].Factors) != 1 || s.Terms[0].Factors[0].Kind != Ident {
		t.Fatalf("SumAgg = %+v", s)
	}
	sp := SumProdAgg(1, 2)
	if len(sp.Terms[0].Factors) != 2 {
		t.Fatalf("SumProdAgg = %+v", sp)
	}
	if SumPowAgg(1, 1).Signature() != SumAgg(1).Signature() {
		t.Fatal("SumPowAgg(.,1) != SumAgg")
	}
	if SumPowAgg(1, 2).Terms[0].Factors[0].Exp != 2 {
		t.Fatal("SumPowAgg exponent lost")
	}
}

func TestAggregateAttrs(t *testing.T) {
	a := NewAggregate("t",
		NewTerm(IdentF(3), IdentF(1)),
		NewTerm(PowF(3, 2), ConstF(2)))
	attrs := a.Attrs()
	if len(attrs) != 2 || attrs[0] != 1 || attrs[1] != 3 {
		t.Fatalf("Attrs = %v", attrs)
	}
}

func TestAggregateDynamic(t *testing.T) {
	static := NewAggregate("s", NewTerm(CustomF("f", 0, nil)))
	dyn := NewAggregate("d", NewTerm(DynamicF("g", 0, nil)))
	if static.Dynamic() || !dyn.Dynamic() {
		t.Fatal("Dynamic misreported")
	}
}

func TestQueryValidate(t *testing.T) {
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	x := db.Attr("x", data.Numeric)
	orphan := db.Attr("orphan", data.Key)
	rel := data.NewRelation("R", []data.AttrID{a, x}, []data.Column{
		data.NewIntColumn([]int64{1}), data.NewFloatColumn([]float64{1}),
	})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}

	good := NewQuery("q", []data.AttrID{a}, SumAgg(x))
	if err := good.Validate(db); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	groupByNumeric := NewQuery("q", []data.AttrID{x}, CountAgg())
	if err := groupByNumeric.Validate(db); err == nil {
		t.Fatal("numeric group-by accepted")
	}
	unknownAttr := NewQuery("q", nil, SumAgg(data.AttrID(99)))
	if err := unknownAttr.Validate(db); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	orphanQ := NewQuery("q", []data.AttrID{orphan}, CountAgg())
	if err := orphanQ.Validate(db); err == nil {
		t.Fatal("attribute outside all relations accepted")
	}
	empty := NewQuery("q", nil, Aggregate{Name: "empty"})
	if err := empty.Validate(db); err == nil {
		t.Fatal("aggregate with no terms accepted")
	}
	unknownGB := NewQuery("q", []data.AttrID{data.AttrID(57)}, CountAgg())
	if err := unknownGB.Validate(db); err == nil {
		t.Fatal("unknown group-by accepted")
	}
}

func TestQueryAttrsAndDedup(t *testing.T) {
	q := NewQuery("q", []data.AttrID{5, 2, 5}, SumProdAgg(2, 7))
	if len(q.GroupBy) != 2 || q.GroupBy[0] != 2 || q.GroupBy[1] != 5 {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	attrs := q.Attrs()
	want := []data.AttrID{2, 5, 7}
	if len(attrs) != len(want) {
		t.Fatalf("Attrs = %v", attrs)
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", attrs, want)
		}
	}
}

// Property: signatures are stable under term permutation.
func TestAggregateSignatureOrderInvariant(t *testing.T) {
	f := func(coefA, coefB float64) bool {
		t1 := NewTerm(IdentF(0)).Scaled(coefA)
		t2 := NewTerm(PowF(1, 2)).Scaled(coefB)
		a := NewAggregate("x", t1, t2)
		b := NewAggregate("y", t2, t1)
		return a.Signature() == b.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPowCompileLargeExp(t *testing.T) {
	f := PowF(0, 7).Compile()
	if got := f(2); got != 128 {
		t.Fatalf("2^7 = %g", got)
	}
}

// fmtSignature is Factor.Signature as fmt writes it: the reference the
// strconv-built signature must match byte for byte, since plans dedup and
// intern by these strings.
func fmtSignature(f Factor) string {
	switch f.Kind {
	case Const:
		return fmt.Sprintf("c(%g)", f.Value)
	case Ident:
		return fmt.Sprintf("x%d", f.Attr)
	case Pow:
		return fmt.Sprintf("x%d^%d", f.Attr, f.Exp)
	case Indicator:
		return fmt.Sprintf("1[x%d%s%g]", f.Attr, f.Op, f.Threshold)
	case InSet:
		return fmt.Sprintf("1[x%d in %v]", f.Attr, f.Set)
	case Log:
		return fmt.Sprintf("log(x%d)", f.Attr)
	case Custom:
		s := fmt.Sprintf("udf:%s(x%d)", f.Name, f.Attr)
		if f.Dynamic {
			s += "!dyn"
		}
		return s
	}
	return ""
}

func TestSignatureMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7919))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e20, 1e-7, 123456789, -2.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200; i++ {
		floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	var fs []Factor
	for i, v := range floats {
		a := data.AttrID(i*37 - 5)
		fs = append(fs, ConstF(v), IdentF(a), PowF(a, i-3), IndicatorF(a, CmpOp(i%7), v), LogF(a),
			Factor{Kind: InSet, Attr: a, Set: []int64{int64(i), -1, math.MaxInt64}}, Factor{Kind: InSet, Attr: a},
			Factor{Kind: Custom, Attr: a, Name: "f", Dynamic: i%2 == 0})
	}
	for _, f := range fs {
		if got, want := f.Signature(), fmtSignature(f); got != want {
			t.Fatalf("%+v: signature %q, fmt writes %q", f, got, want)
		}
	}
}
