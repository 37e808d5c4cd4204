package linreg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/moo"
)

// synthDB builds a two-relation database whose join satisfies
// y = 3 + 2*x1 - 1.5*x2 (+ optional categorical shift) with small noise.
func synthDB(t *testing.T, n int, withCat bool, noise float64) (*data.Database, FeatureSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	db := data.NewDatabase()
	k := db.Attr("k", data.Key)
	x1 := db.Attr("x1", data.Numeric)
	c := db.Attr("c", data.Categorical)
	x2 := db.Attr("x2", data.Numeric)
	y := db.Attr("y", data.Numeric)

	// Dimension: k → x2 (8 join keys).
	dom := 8
	dimX2 := make([]float64, dom)
	for i := range dimX2 {
		dimX2[i] = float64(i) * 0.7
	}
	dim := data.NewRelation("Dim", []data.AttrID{k, x2}, []data.Column{
		data.NewIntColumn(seq(dom)), data.NewFloatColumn(dimX2)})
	if err := db.AddRelation(dim); err != nil {
		t.Fatal(err)
	}

	kv := make([]int64, n)
	x1v := make([]float64, n)
	cv := make([]int64, n)
	yv := make([]float64, n)
	catShift := []float64{0, 4, -2}
	for i := 0; i < n; i++ {
		kv[i] = int64(rng.Intn(dom))
		x1v[i] = rng.NormFloat64() * 2
		cv[i] = int64(rng.Intn(3))
		yv[i] = 3 + 2*x1v[i] - 1.5*dimX2[kv[i]] + noise*rng.NormFloat64()
		if withCat {
			yv[i] += catShift[cv[i]]
		}
	}
	fact := data.NewRelation("Fact", []data.AttrID{k, x1, c, y}, []data.Column{
		data.NewIntColumn(kv), data.NewFloatColumn(x1v),
		data.NewIntColumn(cv), data.NewFloatColumn(yv)})
	if err := db.AddRelation(fact); err != nil {
		t.Fatal(err)
	}
	spec := FeatureSpec{
		Continuous: []data.AttrID{x1, x2},
		Label:      y,
		Lambda:     1e-6,
	}
	if withCat {
		spec.Categorical = []data.AttrID{c}
	}
	return db, spec
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func newEng(t *testing.T, db *data.Database) *moo.Engine {
	t.Helper()
	eng, err := moo.NewEngine(db, moo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCovarBatchShape(t *testing.T) {
	db, spec := synthDB(t, 50, true, 0.1)
	_ = db
	batch := CovarBatch(spec)
	// 1 scalar + 1 categorical + 0 pairs.
	if len(batch) != 2 {
		t.Fatalf("batch size = %d", len(batch))
	}
	// Scalar query: count + 3 sums + 6 pairwise.
	if len(batch[0].Aggs) != 1+3+6 {
		t.Fatalf("scalar aggs = %d", len(batch[0].Aggs))
	}
	if got := NumAggregates(spec); got != 10+1*(1+3) {
		t.Fatalf("NumAggregates = %d", got)
	}
}

func TestCovarMatchesBruteForce(t *testing.T) {
	db, spec := synthDB(t, 60, true, 0.2)
	eng := newEng(t, db)
	cm, _, err := BuildCovar(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the materialized join.
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := base.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	d := len(cm.Features)
	want := make([][]float64, d)
	for i := range want {
		want[i] = make([]float64, d)
	}
	x := make([]float64, d)
	for r := 0; r < flat.Len(); r++ {
		for i, f := range cm.Features {
			switch {
			case f.Intercept:
				x[i] = 1
			case f.Cat >= 0:
				col, _ := flat.Col(f.Attr)
				if col.Int(r) == f.Cat {
					x[i] = 1
				} else {
					x[i] = 0
				}
			default:
				col, _ := flat.Col(f.Attr)
				x[i] = col.Float(r)
			}
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want[i][j] += x[i] * x[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			got := cm.Sigma.At(i, j)
			if math.Abs(got-want[i][j]) > 1e-6*(1+math.Abs(want[i][j])) {
				t.Fatalf("Sigma[%d][%d] (%s,%s) = %g, want %g",
					i, j, cm.Features[i].Name, cm.Features[j].Name, got, want[i][j])
			}
		}
	}
	if cm.Count != float64(flat.Len()) {
		t.Fatalf("count = %g, want %d", cm.Count, flat.Len())
	}
}

func TestBGDRecoversKnownModel(t *testing.T) {
	db, spec := synthDB(t, 400, false, 0.01)
	eng := newEng(t, db)
	cm, _, err := BuildCovar(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnCG(cm, spec, DefaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	// features: [intercept, x1, x2, label]
	wantTheta := []float64{3, 2, -1.5}
	for i, want := range wantTheta {
		if math.Abs(m.Theta[i]-want) > 0.05 {
			t.Fatalf("theta[%d] (%s) = %g, want %g", i, m.Features[i].Name, m.Theta[i], want)
		}
	}
	if m.Iterations == 0 {
		t.Fatal("BGD took no iterations")
	}
}

func TestBGDMatchesClosedForm(t *testing.T) {
	db, spec := synthDB(t, 300, true, 0.5)
	spec.Lambda = 1e-3
	eng := newEng(t, db)
	cm, _, err := BuildCovar(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	bgd, err := LearnCG(cm, spec, OptimOptions{MaxIters: 5000, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := LearnClosedForm(cm, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Paper check: BGD converges to the closed-form accuracy. Compare the
	// loss values rather than raw parameters (one-hot collinearity).
	if math.Abs(bgd.FinalLoss-cf.FinalLoss) > 1e-3*(1+math.Abs(cf.FinalLoss)) {
		t.Fatalf("loss mismatch: BGD %g vs closed form %g", bgd.FinalLoss, cf.FinalLoss)
	}
}

// TestOptimOptionsDefaultPerField checks that each zero field of
// OptimOptions takes its default on its own, and that a fit stopped at the
// cap says so.
func TestOptimOptionsDefaultPerField(t *testing.T) {
	db, spec := synthDB(t, 300, true, 0.5)
	eng := newEng(t, db)
	cm, _, err := BuildCovar(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	fit := func(opt OptimOptions) *Model {
		t.Helper()
		m, err := LearnCG(cm, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	def := fit(DefaultOptim())
	if !def.Converged {
		t.Fatalf("default fit stopped at the cap after %d steps", def.Iterations)
	}
	if m := fit(OptimOptions{}); m.Iterations != def.Iterations || !m.Converged {
		t.Fatalf("zero options: %d steps (converged %v), default %d", m.Iterations, m.Converged, def.Iterations)
	}
	// A caller's tolerance survives a zero MaxIters.
	if m := fit(OptimOptions{Tolerance: 1e-2}); m.Iterations >= def.Iterations || !m.Converged {
		t.Fatalf("Tolerance 1e-2: %d steps (converged %v), default 1e-12 took %d",
			m.Iterations, m.Converged, def.Iterations)
	}
	// A caller's cap survives a zero Tolerance: it does not mean "never stop".
	if m := fit(OptimOptions{MaxIters: 1000}); m.Iterations != def.Iterations || !m.Converged {
		t.Fatalf("MaxIters 1000: %d steps (converged %v), default %d", m.Iterations, m.Converged, def.Iterations)
	}
	if m := fit(OptimOptions{MaxIters: 1}); m.Iterations != 1 || m.Converged {
		t.Fatalf("MaxIters 1: %d steps, converged %v", m.Iterations, m.Converged)
	}
}

func TestRMSEAndPredict(t *testing.T) {
	db, spec := synthDB(t, 300, false, 0.01)
	eng := newEng(t, db)
	cm, _, err := BuildCovar(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnClosedForm(cm, spec)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := base.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := m.RMSE(flat)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.1 {
		t.Fatalf("RMSE = %g, want near noise floor", rmse)
	}
}

func TestMaterializedLearnerAgrees(t *testing.T) {
	db, spec := synthDB(t, 300, false, 0.01)
	base, err := baseline.New(db)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := base.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnMaterialized(flat, db, spec, 800, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1.5}
	for i, w := range want {
		if math.Abs(m.Theta[i]-w) > 0.1 {
			t.Fatalf("materialized theta[%d] = %g, want %g", i, m.Theta[i], w)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	db, spec := synthDB(t, 10, true, 0.1)
	bad := spec
	bad.Continuous = []data.AttrID{spec.Categorical[0]} // categorical as continuous
	if err := bad.Validate(db); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	bad2 := spec
	bad2.Label = spec.Categorical[0]
	if err := bad2.Validate(db); err == nil {
		t.Fatal("categorical label accepted")
	}
	bad3 := spec
	bad3.Categorical = []data.AttrID{spec.Continuous[0]}
	if err := bad3.Validate(db); err == nil {
		t.Fatal("numeric categorical accepted")
	}
}

func TestClosedFormEmpty(t *testing.T) {
	cm := &CovarMatrix{
		Features: []Feature{{Intercept: true}, {}},
		LabelIdx: 1,
		Sigma:    nil,
	}
	cm.Count = 0
	if _, err := LearnClosedForm(cm, FeatureSpec{}); err == nil {
		t.Fatal("empty training set accepted")
	}
}
