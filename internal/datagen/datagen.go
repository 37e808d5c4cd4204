// Package datagen builds seeded synthetic databases with the schemas, join
// trees, key/foreign-key structure and cardinality ratios of the paper's four
// evaluation datasets (Table 1, Appendix A): Retailer and TPC-DS (snowflake),
// Favorita (star) and Yelp (star with many-to-many joins). The real datasets
// are partly proprietary; per DESIGN.md the generators preserve what the
// experiments measure — aggregate-batch sharing, factorization gains over
// join materialization, and Yelp's join blow-up.
//
// Fact tables scale linearly with Config.Scale; dimension tables scale with
// its square root (bounded below), which keeps key domains realistic at small
// scales.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/jointree"
)

// Config controls dataset size and reproducibility.
type Config struct {
	// Scale is the linear scale factor: 1.0 reproduces the paper's
	// cardinalities (tens of millions of fact rows). Typical bench values
	// are 0.001–0.01.
	Scale float64
	// Seed drives all value generation.
	Seed int64
}

// check rejects a scale that is not finite and positive. Below the tables'
// minimum sizes every scale builds the same database, so a zero or
// negative one would silently stand for the smallest.
func (c Config) check() error {
	if !(c.Scale > 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("datagen: scale %v is not a finite number > 0", c.Scale)
	}
	return nil
}

// Dataset bundles a generated database with its join tree and the workload
// attribute sets used by the paper's experiments.
type Dataset struct {
	Name string
	DB   *data.Database
	Tree *jointree.Tree

	// Continuous holds the numeric feature attributes (covar matrix
	// inputs), Categorical the discrete feature attributes.
	Continuous  []data.AttrID
	Categorical []data.AttrID
	// MIAttrs are the attributes used for the pairwise mutual-information
	// batch (paper: 9 for Retailer, 15 Favorita, 11 Yelp, 19 TPC-DS).
	MIAttrs []data.AttrID
	// Label is the regression target (classification for TPC-DS).
	Label data.AttrID
	// CubeDims (3) and CubeMeasures (5) configure the data-cube batch.
	CubeDims     []data.AttrID
	CubeMeasures []data.AttrID
	// JoinKeys are excluded from feature sets.
	JoinKeys []data.AttrID
}

// ByName returns the builder for a dataset name ("retailer", "favorita",
// "yelp", "tpcds").
func ByName(name string) (func(Config) (*Dataset, error), error) {
	switch name {
	case "retailer":
		return Retailer, nil
	case "favorita":
		return Favorita, nil
	case "yelp":
		return Yelp, nil
	case "tpcds":
		return TPCDS, nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q (want retailer|favorita|yelp|tpcds)", name)
	}
}

// All returns the four dataset names in paper order.
func All() []string { return []string{"retailer", "favorita", "yelp", "tpcds"} }

// ---------------------------------------------------------------------------
// generation helpers
// ---------------------------------------------------------------------------

// scaled returns base×scale bounded below by min.
func scaled(base float64, scale float64, min int) int {
	n := int(base * scale)
	if n < min {
		return min
	}
	return n
}

// dimScaled returns base×sqrt(scale) bounded below by min (dimension tables
// shrink more slowly than facts so key domains stay realistic).
func dimScaled(base float64, scale float64, min int) int {
	n := int(base * math.Sqrt(scale))
	if n < min {
		return min
	}
	return n
}

// builder assembles one relation column by column.
type builder struct {
	db    *data.Database
	name  string
	attrs []data.AttrID
	cols  []data.Column
	n     int
}

func newBuilder(db *data.Database, name string, rows int) *builder {
	return &builder{db: db, name: name, n: rows}
}

func (b *builder) key(name string, vals []int64) data.AttrID {
	id := b.db.Attr(name, data.Key)
	b.attrs = append(b.attrs, id)
	b.cols = append(b.cols, data.NewIntColumn(vals))
	return id
}

func (b *builder) cat(name string, vals []int64) data.AttrID {
	id := b.db.Attr(name, data.Categorical)
	b.attrs = append(b.attrs, id)
	b.cols = append(b.cols, data.NewIntColumn(vals))
	return id
}

func (b *builder) num(name string, vals []float64) data.AttrID {
	id := b.db.Attr(name, data.Numeric)
	b.attrs = append(b.attrs, id)
	b.cols = append(b.cols, data.NewFloatColumn(vals))
	return id
}

func (b *builder) add() (*data.Relation, error) {
	rel := data.NewRelation(b.name, b.attrs, b.cols)
	if err := b.db.AddRelation(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// value generators ----------------------------------------------------------

// uniformKeys draws n foreign keys uniformly from [0, dom).
func uniformKeys(rng *rand.Rand, n, dom int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(dom))
	}
	return out
}

// zipfKeys draws n foreign keys with Zipfian skew over [0, dom) — realistic
// for retail fact tables where few items dominate sales.
func zipfKeys(rng *rand.Rand, n, dom int, s float64) []int64 {
	if dom <= 1 {
		return make([]int64, n)
	}
	z := rand.NewZipf(rng, s, 1, uint64(dom-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// seqKeys returns 0..n-1 (dimension primary keys).
func seqKeys(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// smallInts draws n categorical codes from [0, k).
func smallInts(rng *rand.Rand, n, k int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(k))
	}
	return out
}

// gaussian draws n values from N(mean, sd), truncated at zero when pos.
func gaussian(rng *rand.Rand, n int, mean, sd float64, pos bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := mean + sd*rng.NormFloat64()
		if pos && v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// counts draws n small non-negative integers with mean lambda (approximate
// Poisson via geometric mixture; exact distribution is irrelevant here).
func counts(rng *rand.Rand, n int, lambda float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := 0
		p := math.Exp(-lambda)
		f := rng.Float64()
		cum := p
		for f > cum && v < int(lambda*8+10) {
			v++
			p *= lambda / float64(v)
			cum += p
		}
		out[i] = float64(v)
	}
	return out
}

// linearLabel builds a label column as a noisy linear combination of feature
// columns, so regression learners have signal to find.
func linearLabel(rng *rand.Rand, cols [][]float64, coefs []float64, noise float64) []float64 {
	n := len(cols[0])
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 0.0
		for c := range cols {
			v += coefs[c] * cols[c][i]
		}
		out[i] = v + noise*rng.NormFloat64()
	}
	return out
}
