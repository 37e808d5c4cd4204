// Package linreg learns ridge linear regression models over the natural join
// of a database without materializing it (paper §2, §4.2): the engine
// computes the non-centered covariance matrix ("covar matrix") as one
// aggregate batch, and Jacobi-preconditioned conjugate gradient minimizes
// the ridge loss over it. The paper's AC/DC optimizer is batch gradient
// descent with Armijo and Barzilai-Borwein steps over the same matrix; the
// loss is an exact quadratic, so CG reaches its optimum in a few hundred
// mat-vecs where that BGD stopped at its 2000-step cap well short of it. A
// closed-form ridge solver (the MADlib OLS proxy) and a materialize-then-
// iterate learner (the TensorFlow/scikit proxy) serve as competitors and
// accuracy references.
package linreg

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/moo"
	"repro/internal/query"
)

// FeatureSpec declares the model inputs over the joined database.
type FeatureSpec struct {
	// Continuous feature attributes (numeric).
	Continuous []data.AttrID
	// Categorical feature attributes, one-hot encoded (paper eq. 3–4: they
	// become group-by attributes of the covar queries).
	Categorical []data.AttrID
	// Label is the numeric regression target.
	Label data.AttrID
	// Lambda is the ridge penalty λ.
	Lambda float64
}

// Validate checks kinds against the database schema.
func (s FeatureSpec) Validate(db *data.Database) error {
	for _, a := range s.Continuous {
		if db.Attribute(a).Kind != data.Numeric {
			return fmt.Errorf("linreg: continuous feature %q is not numeric", db.Attribute(a).Name)
		}
	}
	for _, a := range s.Categorical {
		if !db.Attribute(a).Kind.Discrete() {
			return fmt.Errorf("linreg: categorical feature %q is numeric", db.Attribute(a).Name)
		}
	}
	if db.Attribute(s.Label).Kind != data.Numeric {
		return fmt.Errorf("linreg: label %q is not numeric", db.Attribute(s.Label).Name)
	}
	return nil
}

// conts returns the numeric attributes with the label appended: the label
// participates in the covar matrix like any other attribute (θ_label = −1).
func (s FeatureSpec) conts() []data.AttrID {
	return append(append([]data.AttrID(nil), s.Continuous...), s.Label)
}

// CovarBatch constructs the aggregate batch computing every entry of the
// covar matrix (paper equations 2–4):
//
//   - one scalar query with count, SUM(Xi) and SUM(Xi·Xj) for all numeric
//     pairs (including the label),
//   - per categorical attribute, a group-by query with count and SUM(Xk),
//   - per categorical pair, a group-by count query.
func CovarBatch(spec FeatureSpec) []*query.Query {
	conts := spec.conts()
	aggs := []query.Aggregate{query.CountAgg()}
	for _, c := range conts {
		aggs = append(aggs, query.SumAgg(c))
	}
	for i, ci := range conts {
		for _, cj := range conts[i:] {
			aggs = append(aggs, query.SumProdAgg(ci, cj))
		}
	}
	queries := []*query.Query{query.NewQuery("covar_cont", nil, aggs...)}

	for _, cat := range spec.Categorical {
		catAggs := []query.Aggregate{query.CountAgg()}
		for _, c := range conts {
			catAggs = append(catAggs, query.SumAgg(c))
		}
		queries = append(queries, query.NewQuery(
			fmt.Sprintf("covar_cat_%d", cat), []data.AttrID{cat}, catAggs...))
	}
	for i, a := range spec.Categorical {
		for _, b := range spec.Categorical[i+1:] {
			queries = append(queries, query.NewQuery(
				fmt.Sprintf("covar_catpair_%d_%d", a, b),
				[]data.AttrID{a, b}, query.CountAgg()))
		}
	}
	return queries
}

// Feature identifies one column of the expanded (one-hot) design matrix.
type Feature struct {
	Name string
	Attr data.AttrID
	// Cat is the category code for one-hot features; -1 for numeric ones
	// and the intercept.
	Cat int64
	// Intercept marks the constant-1 feature.
	Intercept bool
}

// CovarMatrix is the assembled Σ = Σ_D x·xᵀ over the expanded feature space
// [intercept, continuous..., one-hot..., label].
type CovarMatrix struct {
	Features []Feature
	LabelIdx int
	Count    float64
	Sigma    *linalg.Matrix
}

// BuildCovar runs the covar batch on the engine and assembles the matrix.
func BuildCovar(eng *moo.Engine, spec FeatureSpec) (*CovarMatrix, *moo.BatchResult, error) {
	if err := spec.Validate(eng.DB()); err != nil {
		return nil, nil, err
	}
	batch := CovarBatch(spec)
	res, err := eng.Run(batch)
	if err != nil {
		return nil, nil, err
	}
	cm, err := AssembleCovar(eng.DB(), spec, batch, res.Results)
	return cm, res, err
}

// BuildCovarFrom assembles the covar matrix from any Queryable serving the
// spec's canonical batch (CovarBatch order) — a session snapshot, a merged
// sharded snapshot, or a one-shot run. Nothing is recomputed: the matrix is
// read straight out of the served views, so re-fitting a model from a live
// session costs assembly plus optimization only. db supplies attribute
// metadata (names, kinds) and must share the vocabulary the batch was built
// against.
func BuildCovarFrom(q moo.Queryable, db *data.Database, spec FeatureSpec) (*CovarMatrix, error) {
	if err := spec.Validate(db); err != nil {
		return nil, err
	}
	batch := CovarBatch(spec)
	results, err := moo.GatherResults(q, batch)
	if err != nil {
		return nil, err
	}
	return AssembleCovar(db, spec, batch, results)
}

// AssembleCovar builds the covar matrix from batch results (exported
// separately so baseline engines can reuse the assembly in tests).
func AssembleCovar(db *data.Database, spec FeatureSpec, batch []*query.Query, results []*moo.ViewData) (*CovarMatrix, error) {
	conts := spec.conts()
	nc := len(conts)

	// Discover the category universe per categorical attribute from the
	// per-attribute group-by results (queries 1..len(Categorical)).
	catIdx := make(map[data.AttrID]map[int64]int, len(spec.Categorical))
	features := []Feature{{Name: "intercept", Attr: -1, Cat: -1, Intercept: true}}
	contIdx := make([]int, nc)
	for i, c := range conts[:nc-1] {
		contIdx[i] = len(features)
		features = append(features, Feature{Name: db.Attribute(c).Name, Attr: c, Cat: -1})
	}
	for qi, cat := range spec.Categorical {
		vd := results[1+qi]
		m := make(map[int64]int, vd.NumRows())
		for r := 0; r < vd.NumRows(); r++ {
			v := vd.KeyAt(r, 0)
			if _, ok := m[v]; !ok {
				m[v] = len(features)
				features = append(features, Feature{
					Name: fmt.Sprintf("%s=%d", db.Attribute(cat).Name, v),
					Attr: cat, Cat: v,
				})
			}
		}
		catIdx[cat] = m
	}
	labelIdx := len(features)
	contIdx[nc-1] = labelIdx
	features = append(features, Feature{Name: db.Attribute(spec.Label).Name, Attr: spec.Label, Cat: -1})

	d := len(features)
	sigma := linalg.NewMatrix(d, d)
	set := func(i, j int, v float64) {
		sigma.Set(i, j, v)
		sigma.Set(j, i, v)
	}

	// Scalar query: count, sums, pairwise sums.
	sc := results[0]
	if sc.NumRows() != 1 {
		return nil, fmt.Errorf("linreg: scalar covar query returned %d rows", sc.NumRows())
	}
	count := sc.Val(0, 0)
	set(0, 0, count)
	col := 1
	for i := range conts {
		set(0, contIdx[i], sc.Val(0, col))
		col++
	}
	for i := range conts {
		for j := i; j < nc; j++ {
			set(contIdx[i], contIdx[j], sc.Val(0, col))
			col++
		}
	}

	// Per-categorical queries: counts and sums per category.
	for qi, cat := range spec.Categorical {
		vd := results[1+qi]
		for r := 0; r < vd.NumRows(); r++ {
			f := catIdx[cat][vd.KeyAt(r, 0)]
			c := vd.Val(r, 0)
			set(0, f, c)
			set(f, f, c)
			for i := range conts {
				set(f, contIdx[i], vd.Val(r, 1+i))
			}
		}
	}

	// Categorical pair counts.
	qi := 1 + len(spec.Categorical)
	for i, a := range spec.Categorical {
		for _, b := range spec.Categorical[i+1:] {
			vd := results[qi]
			qi++
			// Group-by attrs are sorted in the output view.
			first, second := a, b
			if b < a {
				first, second = b, a
			}
			for r := 0; r < vd.NumRows(); r++ {
				fa := catIdx[first][vd.KeyAt(r, 0)]
				fb := catIdx[second][vd.KeyAt(r, 1)]
				set(fa, fb, vd.Val(r, 0))
			}
		}
	}
	_ = batch
	return &CovarMatrix{Features: features, LabelIdx: labelIdx, Count: count, Sigma: sigma}, nil
}

// NumAggregates returns the number of application aggregates in the covar
// batch for n numeric features (incl. label) and k categorical ones — the
// paper's (n+1)(n+2)/2 plus categorical terms.
func NumAggregates(spec FeatureSpec) int {
	n := len(spec.conts())
	k := len(spec.Categorical)
	return 1 + n + n*(n+1)/2 + k*(1+n) + k*(k-1)/2
}
