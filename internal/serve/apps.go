package serve

import (
	"fmt"
	"sort"
	"sync"

	lmfao "repro"
	"repro/internal/data"
)

// Apps is the serving tier's application registry: which of the five paper
// workloads the served batch carries, and where each one's query window
// lives inside the combined batch. Every registered application gets
// /v1/models/{name}/fit (re-fit from the latest snapshot) and, for the
// predictors, /v1/models/{name}/predict. Windows are carved with
// lmfao.SubQueryable, so one session maintains every application's batch
// concatenated and each fit reads only its slice.
type Apps struct {
	// LinReg fits ridge linear regression from the covar window.
	LinReg *LinRegApp
	// PolyReg fits degree-2 polynomial regression from its window.
	PolyReg *PolyRegApp
	// Tree learns a CART decision tree; it needs the Requerier hook, so it
	// runs under requery admission and has no precomputed window.
	Tree *TreeApp
	// ChowLiu computes pairwise mutual information and the Chow-Liu tree
	// from the MI window.
	ChowLiu *ChowLiuApp
	// Cube serves the data-cube window, flattened.
	Cube *CubeApp
}

// Window is a half-open query-index range [Lo, Hi) inside the served batch.
type Window struct {
	Lo, Hi int
}

// LinRegApp configures the linear-regression application.
type LinRegApp struct {
	Win  Window
	Spec lmfao.LinRegSpec
}

// PolyRegApp configures the polynomial-regression application.
type PolyRegApp struct {
	Win  Window
	Spec lmfao.PolySpec
}

// TreeApp configures the decision-tree application (requery-driven).
type TreeApp struct {
	Spec lmfao.TreeSpec
}

// ChowLiuApp configures the mutual-information / Chow-Liu application.
type ChowLiuApp struct {
	Win   Window
	Attrs []lmfao.AttrID
}

// CubeApp configures the data-cube application.
type CubeApp struct {
	Win  Window
	Spec lmfao.CubeSpec
}

// appNames lists every application the registry can hold, sorted.
var appNames = []string{"chowliu", "cube", "linreg", "polyreg", "tree"}

// Names lists the registered application names, sorted.
func (a *Apps) Names() []string {
	var out []string
	for _, name := range appNames {
		if _, ok := a.learner(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// learner is one registered application: the batch window its fit reads
// (nil for the tree, which drives requeries over the whole snapshot), the
// fit itself, and whether the fitted model predicts (has PredictRow).
type learner struct {
	win      *Window
	fit      func(q lmfao.Queryable, db *lmfao.Database) (any, error)
	predicts bool
}

// chowliuModel is the Chow-Liu learner's fitted value: the MI result and
// the spanning tree's edges.
type chowliuModel struct {
	mi    *lmfao.MIResult
	edges []lmfao.ChowLiuEdge
}

// predictor is the evaluation method the linreg, polyreg and tree models
// share.
type predictor interface {
	PredictRow(flat *data.Relation, i int) (float64, error)
}

// learner returns the application registered as name.
func (a *Apps) learner(name string) (learner, bool) {
	switch {
	case a == nil:
	case name == "linreg" && a.LinReg != nil:
		return learner{&a.LinReg.Win, func(q lmfao.Queryable, db *lmfao.Database) (any, error) {
			return lmfao.LearnLinearRegressionClosedFormFrom(q, db, a.LinReg.Spec)
		}, true}, true
	case name == "polyreg" && a.PolyReg != nil:
		return learner{&a.PolyReg.Win, func(q lmfao.Queryable, db *lmfao.Database) (any, error) {
			return lmfao.LearnPolynomialRegressionFrom(q, db, a.PolyReg.Spec)
		}, true}, true
	case name == "tree" && a.Tree != nil:
		return learner{nil, func(q lmfao.Queryable, db *lmfao.Database) (any, error) {
			return lmfao.LearnDecisionTreeFrom(q, db, a.Tree.Spec)
		}, true}, true
	case name == "chowliu" && a.ChowLiu != nil:
		return learner{&a.ChowLiu.Win, func(q lmfao.Queryable, db *lmfao.Database) (any, error) {
			mi, edges, err := lmfao.LearnChowLiuTreeFrom(q, db, a.ChowLiu.Attrs)
			return chowliuModel{mi, edges}, err
		}, false}, true
	case name == "cube" && a.Cube != nil:
		return learner{&a.Cube.Win, func(q lmfao.Queryable, db *lmfao.Database) (any, error) {
			return lmfao.ComputeDataCubeFrom(q, db, a.Cube.Spec)
		}, false}, true
	}
	return learner{}, false
}

// modelCache holds one fitted model per application, with the epoch vector
// it was fitted at: fitting is pure over a snapshot, so /fit and /predict
// at the same epochs share one fit.
type modelCache struct {
	mu      sync.Mutex
	entries map[string]cachedModel
}

type cachedModel struct {
	epochs string
	value  any
}

// get returns app's cached model if it was fitted at exactly these epochs.
func (c *modelCache) get(app, epochs string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[app]
	if !ok || e.epochs != epochs {
		return nil, false
	}
	return e.value, true
}

// put replaces app's cached model.
func (c *modelCache) put(app, epochs string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]cachedModel)
	}
	c.entries[app] = cachedModel{epochs: epochs, value: v}
}

// fitMeta is the part every /fit response shares: the epochs the model was
// fitted at and whether it came from the cache.
type fitMeta struct {
	Epochs []uint64 `json:"epochs"`
	Cached bool     `json:"cached"`
}

// linregModelWire renders a fitted linear-regression model.
type linregModelWire struct {
	Features  []string  `json:"features"`
	Theta     []float64 `json:"theta"`
	FinalLoss float64   `json:"finalLoss"`
	fitMeta
}

// polyModelWire renders a fitted polynomial-regression model.
type polyModelWire struct {
	Monomials int       `json:"monomials"`
	Theta     []float64 `json:"theta"`
	fitMeta
}

// treeModelWire renders a learned decision tree.
type treeModelWire struct {
	Nodes int `json:"nodes"`
	Depth int `json:"depth"`
	fitMeta
}

// chowliuWire renders the Chow-Liu tree over the MI window.
type chowliuWire struct {
	Attrs []string      `json:"attrs"`
	Edges []chowliuEdge `json:"edges"`
	fitMeta
}

type chowliuEdge struct {
	I      int     `json:"i"`
	J      int     `json:"j"`
	Weight float64 `json:"weight"`
}

// cubeWire renders the flattened data cube (capped).
type cubeWire struct {
	Dims     []string    `json:"dims"`
	Measures []string    `json:"measures"`
	Rows     int         `json:"rows"`
	Data     []resultRow `json:"data"`
	fitMeta
}

// renderModel renders a fitted model as its /fit response, capping a
// cube's rows at maxRows (0 = no cap).
func renderModel(db *lmfao.Database, m any, meta fitMeta, maxRows int) any {
	switch m := m.(type) {
	case *lmfao.LinRegModel:
		names := make([]string, len(m.Features))
		for i, f := range m.Features {
			names[i] = f.Name
		}
		return linregModelWire{names, m.Theta, m.FinalLoss, meta}
	case *lmfao.PolyModel:
		return polyModelWire{len(m.Monomials), m.Theta, meta}
	case *lmfao.TreeModel:
		return treeModelWire{m.Nodes, treeDepth(m.Root), meta}
	case chowliuModel:
		edges := make([]chowliuEdge, len(m.edges))
		for i, e := range m.edges {
			edges[i] = chowliuEdge{I: e.I, J: e.J, Weight: e.Weight}
		}
		return chowliuWire{db.AttrNames(m.mi.Attrs), edges, meta}
	case *lmfao.CubeResult:
		flat := m.Flatten()
		n := len(flat)
		if maxRows > 0 && n > maxRows {
			n = maxRows
		}
		rows := make([]resultRow, n)
		for i := range rows {
			rows[i] = resultRow{Key: flat[i].Dims, Values: flat[i].Values}
		}
		return cubeWire{db.AttrNames(m.Spec.Dims), db.AttrNames(m.Spec.Measures), len(flat), rows, meta}
	}
	panic(fmt.Sprintf("serve: no rendering for model %T", m))
}

// predictRequest carries one input tuple, keyed by attribute name.
type predictRequest struct {
	Row map[string]float64 `json:"row"`
}

// predictResponse returns the model's prediction for the tuple.
type predictResponse struct {
	Prediction float64  `json:"prediction"`
	Epochs     []uint64 `json:"epochs"`
}

// rowRelation builds a one-row relation from a name-keyed tuple, typed per
// attribute kind, for the PredictRow entry points.
func rowRelation(db *lmfao.Database, row map[string]float64) (*data.Relation, error) {
	if len(row) == 0 {
		return nil, fmt.Errorf("empty input row")
	}
	names := make([]string, 0, len(row))
	for name := range row {
		names = append(names, name)
	}
	sort.Strings(names)
	attrs := make([]lmfao.AttrID, len(names))
	cols := make([]data.Column, len(names))
	for i, name := range names {
		id, ok := db.AttrByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
		attrs[i] = id
		col, err := wireColumn(db, id, []float64{row[name]})
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return data.NewRelation("input", attrs, cols), nil
}

// treeDepth computes the maximum depth of a learned tree.
func treeDepth(n *lmfao.TreeNode) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := treeDepth(n.Left), treeDepth(n.Right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}
