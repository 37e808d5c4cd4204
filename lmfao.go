// Package lmfao is a Go implementation of LMFAO — the Layered Multiple
// Functional Aggregate Optimization engine of "A Layered Aggregate Engine for
// Analytics Workloads" (Schleich, Olteanu, Abo Khamis, Ngo, Nguyen; SIGMOD
// 2019): an in-memory optimization and execution engine for large batches of
// group-by aggregates over the natural join of a relational database, plus
// the analytics applications built on top of it.
//
// The engine never materializes the join. A batch of queries
//
//	Q(F1,...,Ff; α1,...,αl) += R1 ⋈ ... ⋈ Rm
//
// is decomposed over a join tree into directional views (Aggregate Pushdown),
// consolidated (Merge Views), clustered into view groups (Group Views) and
// evaluated by one shared trie-style scan per group (Multi-Output
// Optimization), with closure-compiled factors and task/domain parallelism.
//
// # Quick start
//
//	db := lmfao.NewDatabase()
//	store := db.Attr("store", lmfao.Key)
//	sales := db.Attr("sales", lmfao.Numeric)
//	... add relations ...
//	eng, err := lmfao.NewEngine(db, lmfao.DefaultOptions())
//	res, err := eng.Run([]*lmfao.Query{
//	    lmfao.NewQuery("total", []lmfao.AttrID{store}, lmfao.Sum(sales)),
//	})
//
// Applications: LinearRegression (ridge via the covar matrix), DecisionTree
// (CART), ChowLiu (Bayesian network structure from mutual information) and
// DataCube.
//
// Beyond the paper's static pipeline, computed batches stay fresh under
// base-data updates: Session maintains the view DAG incrementally and
// serves lock-free snapshots while maintenance runs; with more than one
// shard (NewShardedSession) it scales maintenance throughput further by
// hash-partitioning the fact relation across independent per-shard writers
// whose snapshots merge on read, and with a log directory
// (NewDurableSession, RecoverSession) it survives a crash.
//
// # Serving API
//
// Two small interfaces tie the layers together. Queryable is the read side
// — one immutable batch of results, whether from a one-shot engine run
// (RunQueryable) or a Session snapshot merged across its shards — and
// Maintainer is the write/serve side (Run, Apply, ApplyAsync, Snapshot,
// Wait, Close), satisfied by Session over any shard count. Every application has a
// From entry point over Queryable, so a model re-fits from a live session
// between maintenance rounds with zero aggregate recomputation:
//
//	sess, _ := lmfao.NewSession(db, lmfao.CovarBatch(spec), lmfao.DefaultOptions())
//	sess.Run()
//	model, _ := lmfao.LearnLinearRegressionFrom(sess.Snapshot(), db, spec)
//	sess.Apply(updates...) // maintain incrementally ...
//	model, _ = lmfao.LearnLinearRegressionFrom(sess.Snapshot(), db, spec) // ... re-fit fresh
package lmfao

import (
	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/moo"
	"repro/internal/query"
)

// Core storage types.
type (
	// Database holds the attribute registry and base relations.
	Database = data.Database
	// Relation is an in-memory columnar relation.
	Relation = data.Relation
	// AttrID identifies an attribute within a database.
	AttrID = data.AttrID
	// Column stores the values of one attribute.
	Column = data.Column
	// Kind classifies attributes (Key, Categorical, Numeric).
	Kind = data.Kind
)

// Attribute kinds.
const (
	Key         = data.Key
	Categorical = data.Categorical
	Numeric     = data.Numeric
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return data.NewDatabase() }

// NewRelation constructs a columnar relation.
func NewRelation(name string, attrs []AttrID, cols []Column) *Relation {
	return data.NewRelation(name, attrs, cols)
}

// IntColumn wraps discrete values (keys, categorical codes).
func IntColumn(vals []int64) Column { return data.NewIntColumn(vals) }

// FloatColumn wraps numeric values.
func FloatColumn(vals []float64) Column { return data.NewFloatColumn(vals) }

// Query language types.
type (
	// Query is one group-by aggregate over the database's natural join.
	Query = query.Query
	// Aggregate is a sum of products of unary functions.
	Aggregate = query.Aggregate
	// Term is a product of factors with a coefficient.
	Term = query.Term
	// Factor is one unary function application.
	Factor = query.Factor
	// CmpOp is a comparison operator for Indicator factors.
	CmpOp = query.CmpOp
	// MonoidAgg is a generalized aggregate over a commutative monoid —
	// MIN, MAX, COUNT DISTINCT, top-k per group — maintained under
	// inserts AND deletes via internal support views (see Session).
	MonoidAgg = query.MonoidAgg
)

// Comparison operators.
const (
	LE = query.LE
	LT = query.LT
	GE = query.GE
	GT = query.GT
	EQ = query.EQ
	NE = query.NE
)

// NewQuery builds a query with the given group-by attributes and aggregates.
func NewQuery(name string, groupBy []AttrID, aggs ...Aggregate) *Query {
	return query.NewQuery(name, groupBy, aggs...)
}

// Count is SUM(1).
func Count() Aggregate { return query.CountAgg() }

// Sum is SUM(attr).
func Sum(attr AttrID) Aggregate { return query.SumAgg(attr) }

// SumProd is SUM(Π attrs).
func SumProd(attrs ...AttrID) Aggregate { return query.SumProdAgg(attrs...) }

// SumPow is SUM(attr^exp).
func SumPow(attr AttrID, exp int) Aggregate { return query.SumPowAgg(attr, exp) }

// NewAggregate builds an aggregate from terms.
func NewAggregate(name string, terms ...Term) Aggregate { return query.NewAggregate(name, terms...) }

// MinOf is the MIN(attr) monoid aggregate. Append it to Query.MonoidAggs.
func MinOf(attr AttrID) MonoidAgg { return query.MinOf(attr) }

// MaxOf is the MAX(attr) monoid aggregate.
func MaxOf(attr AttrID) MonoidAgg { return query.MaxOf(attr) }

// DistinctOf is the COUNT(DISTINCT attr) monoid aggregate.
func DistinctOf(attr AttrID) MonoidAgg { return query.DistinctOf(attr) }

// TopKOf is the top-k-per-group monoid aggregate: the k largest distinct
// values of attr in each group, emitted descending across k columns (absent
// slots hold -monoid.Empty).
func TopKOf(attr AttrID, k int) MonoidAgg { return query.TopKOf(attr, k) }

// NewTerm builds a product term with coefficient 1.
func NewTerm(factors ...Factor) Term { return query.NewTerm(factors...) }

// Factor constructors.
var (
	ConstF     = query.ConstF
	IdentF     = query.IdentF
	PowF       = query.PowF
	IndicatorF = query.IndicatorF
	InSetF     = query.InSetF
	LogF       = query.LogF
	CustomF    = query.CustomF
	DynamicF   = query.DynamicF
)

// Engine types.
type (
	// Engine evaluates aggregate batches with the layered architecture.
	Engine = moo.Engine
	// Options selects optimization levels (Figure 5 ablations).
	Options = moo.Options
	// BatchResult carries batch outputs and planning statistics.
	BatchResult = moo.BatchResult
	// Result is one query's materialized output.
	Result = moo.ViewData
	// JoinTree is the join tree the engine evaluates over.
	JoinTree = jointree.Tree
)

// NewEngine builds the join tree for db (decomposing cyclic schemas via
// hypertree bags) and returns an engine.
func NewEngine(db *Database, opts Options) (*Engine, error) {
	return moo.NewEngine(db, opts)
}

// NewEngineWithTree wraps an existing join tree.
func NewEngineWithTree(db *Database, tree *JoinTree, opts Options) *Engine {
	return moo.NewEngineWithTree(db, tree, opts)
}

// DefaultOptions enables every optimization layer.
func DefaultOptions() Options { return moo.DefaultOptions() }

// ACDCOptions disables every optimization (the paper's AC/DC proxy).
func ACDCOptions() Options { return moo.ACDCOptions() }

// BuildJoinTree constructs a join tree over the database's relations.
func BuildJoinTree(db *Database) (*JoinTree, error) { return jointree.Build(db) }

// Baseline is the materialize-then-scan competitor engine (the paper's
// PostgreSQL / MonetDB / DBX proxy).
type Baseline = baseline.Engine

// NewBaseline builds a baseline engine over db.
func NewBaseline(db *Database) (*Baseline, error) { return baseline.New(db) }
