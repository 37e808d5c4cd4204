package lmfao

import (
	"fmt"

	"repro/internal/ml/chowliu"
	"repro/internal/ml/cube"
	"repro/internal/ml/linreg"
	"repro/internal/ml/tree"
)

// The application layer learns models from batches of group-by aggregates
// (paper §2, §4). Every application has two entry points sharing one
// implementation:
//
//   - a From variant taking a Queryable — the primary path. The Queryable
//     must serve the application's canonical batch (the matching *Batch
//     constructor), so the same call re-fits a model from a one-shot run
//     (RunQueryable) or a live Session snapshot, merged across its shards,
//     without recomputing a single aggregate. Combine several applications'
//     batches in one session and carve windows with SubQueryable.
//   - an *Engine shim keeping the pre-serving-API signature: it runs the
//     canonical batch on the engine and delegates to the From variant.
//
// The db argument of the From variants supplies attribute metadata (names,
// kinds); pass the database the batch was built against. A sharded
// session's source database works for everything but trees: shard copies
// preserve the attribute vocabulary, and only LearnDecisionTreeFrom also
// reads base COLUMNS from db (split-threshold bucketing) — see its doc for
// the staleness caveat.

// Linear regression (paper §2 "Ridge Linear Regression", §4.2).
type (
	// LinRegSpec declares the regression features over the joined database.
	LinRegSpec = linreg.FeatureSpec
	// LinRegModel is a trained ridge regression model.
	LinRegModel = linreg.Model
	// CovarMatrix is the non-centered covariance matrix Σ x·xᵀ.
	CovarMatrix = linreg.CovarMatrix
)

// CovarBatch builds the canonical covar-matrix batch for spec — the batch a
// session must serve for BuildCovarMatrixFrom and the Learn*RegressionFrom
// entry points.
func CovarBatch(spec LinRegSpec) []*Query { return linreg.CovarBatch(spec) }

// BuildCovarMatrixFrom assembles the covar matrix from any Queryable
// serving CovarBatch(spec) — nothing is recomputed, so re-fitting from a
// live session costs assembly plus optimization only.
func BuildCovarMatrixFrom(q Queryable, db *Database, spec LinRegSpec) (*CovarMatrix, error) {
	return linreg.BuildCovarFrom(q, db, spec)
}

// BuildCovarMatrix computes the covar matrix as one aggregate batch on the
// engine (the *Engine shim over BuildCovarMatrixFrom).
func BuildCovarMatrix(eng *Engine, spec LinRegSpec) (*CovarMatrix, *BatchResult, error) {
	if err := spec.Validate(eng.DB()); err != nil {
		return nil, nil, err
	}
	sn, err := RunQueryable(eng, CovarBatch(spec))
	if err != nil {
		return nil, nil, err
	}
	cm, err := BuildCovarMatrixFrom(sn, eng.DB(), spec)
	if err != nil {
		return nil, nil, err
	}
	return cm, sn.Batch(), nil
}

// LearnLinearRegressionFrom trains a ridge model with Jacobi-preconditioned
// conjugate gradient over the covar matrix read from any Queryable serving
// CovarBatch(spec). A fit that stops at the iteration cap is returned with
// Converged false, not as an error.
func LearnLinearRegressionFrom(q Queryable, db *Database, spec LinRegSpec) (*LinRegModel, error) {
	cm, err := BuildCovarMatrixFrom(q, db, spec)
	if err != nil {
		return nil, err
	}
	return linreg.LearnCG(cm, spec, linreg.DefaultOptim())
}

// LearnLinearRegression trains a ridge model with conjugate gradient over
// the covar matrix (the *Engine shim over LearnLinearRegressionFrom).
func LearnLinearRegression(eng *Engine, spec LinRegSpec) (*LinRegModel, error) {
	cm, _, err := BuildCovarMatrix(eng, spec)
	if err != nil {
		return nil, err
	}
	return linreg.LearnCG(cm, spec, linreg.DefaultOptim())
}

// LearnLinearRegressionClosedFormFrom solves the ridge normal equations
// directly over the covar matrix read from any Queryable serving
// CovarBatch(spec).
func LearnLinearRegressionClosedFormFrom(q Queryable, db *Database, spec LinRegSpec) (*LinRegModel, error) {
	cm, err := BuildCovarMatrixFrom(q, db, spec)
	if err != nil {
		return nil, err
	}
	return linreg.LearnClosedForm(cm, spec)
}

// LearnLinearRegressionClosedForm solves the ridge normal equations directly
// (the MADlib OLS proxy; *Engine shim over the From variant).
func LearnLinearRegressionClosedForm(eng *Engine, spec LinRegSpec) (*LinRegModel, error) {
	cm, _, err := BuildCovarMatrix(eng, spec)
	if err != nil {
		return nil, err
	}
	return linreg.LearnClosedForm(cm, spec)
}

// Polynomial regression (paper §2 "Higher-degree Regression Models", eq. 5).
type (
	// PolySpec declares a degree-2 polynomial regression model.
	PolySpec = linreg.PolySpec
	// PolyModel is a trained polynomial regression model.
	PolyModel = linreg.PolyModel
)

// PolynomialBatch builds the canonical degree-2 polynomial covar batch for
// spec — the batch a session must serve for LearnPolynomialRegressionFrom.
func PolynomialBatch(db *Database, spec PolySpec) []*Query {
	batch, _ := linreg.PolyBatch(db, spec)
	return batch
}

// LearnPolynomialRegressionFrom solves the degree-2 polynomial model from
// any Queryable serving PolynomialBatch(db, spec).
func LearnPolynomialRegressionFrom(q Queryable, db *Database, spec PolySpec) (*PolyModel, error) {
	return linreg.LearnPolynomialFrom(q, db, spec)
}

// LearnPolynomialRegression trains a degree-2 polynomial model: its covar
// matrix over all monomials of degree ≤ 2 is one aggregate batch (the
// *Engine shim over LearnPolynomialRegressionFrom).
func LearnPolynomialRegression(eng *Engine, spec PolySpec) (*PolyModel, error) {
	if err := spec.Validate(eng.DB()); err != nil {
		return nil, err
	}
	sn, err := RunQueryable(eng, PolynomialBatch(eng.DB(), spec))
	if err != nil {
		return nil, err
	}
	return LearnPolynomialRegressionFrom(sn, eng.DB(), spec)
}

// Decision trees (paper §2 "Classification and Regression Trees").
type (
	// TreeSpec configures CART learning.
	TreeSpec = tree.Spec
	// TreeModel is a learned decision tree.
	TreeModel = tree.Model
	// TreeNode is one node of a learned decision tree.
	TreeNode = tree.Node
	// TreeTask selects regression or classification.
	TreeTask = tree.Task
)

// Tree tasks and costs.
const (
	RegressionTree     = tree.Regression
	ClassificationTree = tree.Classification
	GiniCost           = tree.Gini
	EntropyCost        = tree.Entropy
)

// DefaultTreeSpec fills the paper's CART defaults (depth 4, 20 buckets, min
// split 1000).
func DefaultTreeSpec(task TreeTask, label AttrID) TreeSpec {
	return tree.DefaultSpec(task, label)
}

// LearnDecisionTreeFrom grows a CART tree through a Queryable's refinement
// hook: the root statistics are one fresh batch, then each tree level is one
// more, holding every node of the level's split statistics conditioned on
// that node's ancestor splits, so q must implement Requerier (session and
// sharded snapshots do, as does RunQueryable's adapter — the served batch
// itself is not consulted). The tree reflects the data behind the hook at
// learning time; quiesce updates for agreement with a pinned snapshot.
//
// Unlike the other From entry points, db is consulted for DATA, not just
// metadata: candidate split thresholds are bucketed from db's continuous
// base columns (tree.Thresholds). Behind a one-shard Session, db is the
// session's live database and thresholds track the stream. Behind a
// session of more than one shard — which copies its source database — an
// un-maintained source db yields thresholds bucketed from construction-time
// values while node statistics reflect the live shards: still a valid CART
// tree, but its candidate grid can differ from a from-scratch recompute.
// Mirror the update stream into db (or re-derive one) when exact recompute
// parity matters.
func LearnDecisionTreeFrom(q Queryable, db *Database, spec TreeSpec) (*TreeModel, error) {
	rq, ok := q.(Requerier)
	if !ok {
		return nil, fmt.Errorf("lmfao: decision-tree learning needs the Requerier refinement hook, which %T does not implement", q)
	}
	return tree.LearnWith(tree.RunBatch(rq.Requery), db, spec)
}

// LearnDecisionTree grows a CART tree; the root statistics and then each tree
// level's split statistics are one aggregate batch over the database (the
// *Engine shim over LearnDecisionTreeFrom's refinement loop).
func LearnDecisionTree(eng *Engine, spec TreeSpec) (*TreeModel, error) {
	return tree.Learn(eng, spec)
}

// Mutual information and Chow-Liu trees (paper §2 "Mutual Information").
type (
	// MIResult holds the pairwise mutual-information matrix.
	MIResult = chowliu.Result
	// ChowLiuEdge is one edge of the learned Bayesian network tree.
	ChowLiuEdge = chowliu.Edge
)

// MIBatch builds the canonical count batch of the pairwise mutual
// information workload over attrs — the batch a session must serve for
// MutualInformationFrom and LearnChowLiuTreeFrom.
func MIBatch(attrs []AttrID) []*Query { return chowliu.MIBatch(attrs) }

// MutualInformationFrom evaluates all pairwise MI values from any Queryable
// serving MIBatch(attrs).
func MutualInformationFrom(q Queryable, db *Database, attrs []AttrID) (*MIResult, error) {
	return chowliu.ComputeFrom(q, db, attrs)
}

// MutualInformation computes all pairwise MI values over the given discrete
// attributes with one count-query batch (the *Engine shim over
// MutualInformationFrom).
func MutualInformation(eng *Engine, attrs []AttrID) (*MIResult, *BatchResult, error) {
	sn, err := RunQueryable(eng, MIBatch(attrs))
	if err != nil {
		return nil, nil, err
	}
	res, err := MutualInformationFrom(sn, eng.DB(), attrs)
	if err != nil {
		return nil, nil, err
	}
	return res, sn.Batch(), nil
}

// LearnChowLiuTreeFrom computes MI from any Queryable serving MIBatch(attrs)
// and returns the maximum spanning tree — the optimal tree-shaped Bayesian
// network over the attributes.
func LearnChowLiuTreeFrom(q Queryable, db *Database, attrs []AttrID) (*MIResult, []ChowLiuEdge, error) {
	res, err := MutualInformationFrom(q, db, attrs)
	if err != nil {
		return nil, nil, err
	}
	return res, chowliu.ChowLiu(res), nil
}

// LearnChowLiuTree computes MI and returns the maximum spanning tree (the
// *Engine shim over LearnChowLiuTreeFrom).
func LearnChowLiuTree(eng *Engine, attrs []AttrID) (*MIResult, []ChowLiuEdge, error) {
	res, _, err := MutualInformation(eng, attrs)
	if err != nil {
		return nil, nil, err
	}
	return res, chowliu.ChowLiu(res), nil
}

// Data cubes (paper §2 "Data Cubes").
type (
	// CubeSpec configures a data cube (dimensions + measures).
	CubeSpec = cube.Spec
	// CubeResult is a computed cube (2^k cuboids).
	CubeResult = cube.Result
	// CubeRow is one 1NF row with ALL sentinels.
	CubeRow = cube.Row
)

// CubeAll is the ALL sentinel of the 1NF cube representation.
const CubeAll = cube.All

// CubeBatch builds the canonical 2^k cuboid batch for spec (cuboid mask =
// query index) — the batch a session must serve for ComputeDataCubeFrom.
func CubeBatch(spec CubeSpec) []*Query { return cube.Batch(spec) }

// ComputeDataCubeFrom assembles the cube from any Queryable serving
// CubeBatch(spec): the cuboids are the served views themselves, so a cube
// over a maintained session is always fresh at zero recomputation cost.
func ComputeDataCubeFrom(q Queryable, db *Database, spec CubeSpec) (*CubeResult, error) {
	return cube.ComputeFrom(q, db, spec)
}

// ComputeDataCube evaluates the 2^k cuboids as one batch (the *Engine shim
// over ComputeDataCubeFrom).
func ComputeDataCube(eng *Engine, spec CubeSpec) (*CubeResult, *BatchResult, error) {
	if err := spec.Validate(eng.DB()); err != nil {
		return nil, nil, err
	}
	sn, err := RunQueryable(eng, CubeBatch(spec))
	if err != nil {
		return nil, nil, err
	}
	res, err := ComputeDataCubeFrom(sn, eng.DB(), spec)
	if err != nil {
		return nil, nil, err
	}
	return res, sn.Batch(), nil
}
