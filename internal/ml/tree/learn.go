package tree

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/moo"
	"repro/internal/query"
)

// RunBatch evaluates one ad-hoc aggregate batch and returns one
// materialized view per query, batch order, each sorted by its group-by as
// engine outputs are — the only capability tree learning needs from its
// backend. An engine, a session snapshot's requery hook, or a sharded
// snapshot's fan-out-and-merge all fit. The learner calls it once for the
// root's statistics and then once per tree level; it reads categorical
// candidates in row order and fails on rows out of order.
type RunBatch func(queries []*query.Query) ([]*moo.ViewData, error)

// Learn grows a CART tree using the LMFAO engine: the root statistics are one
// aggregate batch over the input database and every tree level one more; the
// training dataset is never materialized.
func Learn(eng *moo.Engine, spec Spec) (*Model, error) {
	return LearnWith(func(queries []*query.Query) ([]*moo.ViewData, error) {
		res, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		return res.Results, nil
	}, eng.DB(), spec)
}

// LearnWith grows a CART tree over any batch evaluator, breadth-first. The
// root's statistics are one batch; then each level's frontier — the nodes
// still to be split — is one batch handed to run: the concatenation of every
// frontier node's NodeBatch, conditioned on that node's ancestor splits, from
// whose slice of the results each node picks its split. A tree of depth d
// costs at most d+1 runs. db supplies attribute metadata and the base columns
// the split thresholds are bucketed from; it must be the database (or an
// identically loaded copy of the database) behind run.
func LearnWith(run RunBatch, db *data.Database, spec Spec) (*Model, error) {
	spec.normalize()
	if err := spec.Validate(db); err != nil {
		return nil, err
	}
	thresholds, err := Thresholds(db, spec)
	if err != nil {
		return nil, err
	}
	l := &engineLearner{run: run, spec: spec, thresholds: thresholds}
	root, classes, err := l.rootStats()
	if err != nil {
		return nil, err
	}
	l.classes = classes
	m := &Model{Spec: spec, Classes: classes}
	var frontier []fragment
	m.Root, frontier = l.addNode(frontier, nil, root, 0)
	for len(frontier) > 0 {
		if frontier, err = l.splitLevel(frontier); err != nil {
			return nil, err
		}
	}
	m.Nodes = 1 + 2*l.splits
	return m, nil
}

type engineLearner struct {
	run        RunBatch
	spec       Spec
	thresholds map[data.AttrID][]float64
	classes    []int64
	classIdx   map[int64]int
	splits     int
}

// fragment is a frontier node: a node that may be split, the conditions
// defining its fragment and the fragment's statistics.
type fragment struct {
	node  *Node
	conds []Condition
	stats nodeStats
}

// rootStats evaluates the unconditioned node statistics and, for
// classification, discovers the label classes. It is a run of its own:
// folding it into the first level's batch changes the plan the root
// statistics come from, and with it their floating-point sums.
func (l *engineLearner) rootStats() (nodeStats, []int64, error) {
	if l.spec.Task == Regression {
		views, err := l.run([]*query.Query{query.NewQuery("rt_root", nil,
			query.CountAgg(),
			query.SumAgg(l.spec.Label),
			query.SumPowAgg(l.spec.Label, 2))})
		if err != nil {
			return nodeStats{}, nil, err
		}
		vd := views[0]
		return nodeStats{count: vd.Val(0, 0), sum: vd.Val(0, 1), sumSq: vd.Val(0, 2)}, nil, nil
	}
	views, err := l.run([]*query.Query{query.NewQuery("ct_root",
		[]data.AttrID{l.spec.Label}, query.CountAgg())})
	if err != nil {
		return nodeStats{}, nil, err
	}
	vd := views[0]
	codes := make([]int64, vd.NumRows())
	for i := range codes {
		codes[i] = vd.KeyAt(i, 0)
	}
	classes, idx := classIndex(codes)
	l.classIdx = idx
	st := nodeStats{classCounts: make([]float64, len(classes))}
	for i := 0; i < vd.NumRows(); i++ {
		c := vd.Val(i, 0)
		st.classCounts[idx[vd.KeyAt(i, 0)]] = c
		st.count += c
	}
	return st, classes, nil
}

// addNode creates the node of the fragment defined by conds, whose
// statistics are known, and appends it to frontier unless it stays a leaf.
func (l *engineLearner) addNode(frontier []fragment, conds []Condition, stats nodeStats, depth int) (*Node, []fragment) {
	node := &Node{
		Prediction: stats.prediction(l.spec, l.classes),
		Count:      stats.count,
		Cost:       stats.cost(l.spec),
		Depth:      depth,
	}
	if depth >= l.spec.MaxDepth || stats.count < float64(l.spec.MinSplit) || node.Cost <= 1e-12 {
		return node, frontier
	}
	return node, append(frontier, fragment{node: node, conds: conds, stats: stats})
}

// splitLevel evaluates the candidate splits of every frontier node in one
// run, splits each node that has a best candidate, and returns the next
// frontier. Node i's queries are batch[off[i]:off[i+1]].
func (l *engineLearner) splitLevel(frontier []fragment) ([]fragment, error) {
	var batch []*query.Query
	off := make([]int, len(frontier)+1)
	for i, f := range frontier {
		batch = append(batch, NodeBatch(l.spec, f.conds, l.thresholds)...)
		off[i+1] = len(batch)
	}
	results, err := l.run(batch)
	if err != nil {
		return nil, err
	}
	if len(results) != len(batch) {
		return nil, fmt.Errorf("tree: level batch of %d queries returned %d results", len(batch), len(results))
	}
	var next []fragment
	for i, f := range frontier {
		cands, err := l.candidates(results[off[i]:off[i+1]])
		if err != nil {
			return nil, err
		}
		best, _ := chooseSplit(l.spec, f.stats, cands)
		if best == nil {
			continue
		}
		cond := best.cond
		f.node.SplitCond = &cond
		l.splits++
		depth := f.node.Depth + 1
		f.node.Left, next = l.addNode(next, childConds(f.conds, cond), best.left, depth)
		f.node.Right, next = l.addNode(next, childConds(f.conds, cond.Negated()), f.stats.minus(best.left), depth)
	}
	return next, nil
}

func childConds(conds []Condition, c Condition) []Condition {
	return append(slices.Clip(conds), c)
}

// candidates decodes every candidate's left-side statistics from one node's
// slice of a level's results.
func (l *engineLearner) candidates(results []*moo.ViewData) ([]candidate, error) {
	var cands []candidate
	switch l.spec.Task {
	case Regression:
		vd := results[0]
		if vd.NumRows() != 1 {
			return nil, fmt.Errorf("tree: node query returned %d rows", vd.NumRows())
		}
		col := 3
		for _, attr := range l.spec.Continuous {
			if attr == l.spec.Label {
				continue
			}
			for _, t := range l.thresholds[attr] {
				cands = append(cands, candidate{
					cond: Condition{Attr: attr, Continuous: true, Op: query.LE, Threshold: t},
					left: nodeStats{count: vd.Val(0, col), sum: vd.Val(0, col+1), sumSq: vd.Val(0, col+2)},
				})
				col += 3
			}
		}
		for qi, attr := range l.spec.Categorical {
			// An application output is sorted by its group-by, so the rows
			// come in category order, as the materialized learner's.
			cvd := results[1+qi]
			for r := 0; r < cvd.NumRows(); r++ {
				if r > 0 && cvd.KeyAt(r, 0) <= cvd.KeyAt(r-1, 0) {
					return nil, fmt.Errorf("tree: categories of attribute %d arrive out of order at row %d", attr, r)
				}
				cands = append(cands, candidate{
					cond: Condition{Attr: attr, Op: query.EQ, Threshold: float64(cvd.KeyAt(r, 0))},
					left: nodeStats{count: cvd.Val(r, 0), sum: cvd.Val(r, 1), sumSq: cvd.Val(r, 2)},
				})
			}
		}
	case Classification:
		nc := len(l.classes)
		vd := results[0] // group-by label
		col := 1
		for _, attr := range l.spec.Continuous {
			for _, t := range l.thresholds[attr] {
				left := nodeStats{classCounts: make([]float64, nc)}
				for r := 0; r < vd.NumRows(); r++ {
					ci, ok := l.classIdx[vd.KeyAt(r, 0)]
					if !ok {
						continue
					}
					v := vd.Val(r, col)
					left.classCounts[ci] += v
					left.count += v
				}
				cands = append(cands, candidate{
					cond: Condition{Attr: attr, Continuous: true, Op: query.LE, Threshold: t},
					left: left,
				})
				col++
			}
		}
		// Categorical: group-by (attr, label) counts; attr/label column
		// order follows sorted attribute IDs in the output view.
		qi := 2
		for _, attr := range l.spec.Categorical {
			if attr == l.spec.Label {
				continue
			}
			cvd := results[qi]
			qi++
			attrCol, labelCol := 0, 1
			if l.spec.Label < attr {
				attrCol, labelCol = 1, 0
			}
			byCat := map[int64]*nodeStats{}
			var order []int64
			for r := 0; r < cvd.NumRows(); r++ {
				cat := cvd.KeyAt(r, attrCol)
				st, ok := byCat[cat]
				if !ok {
					st = &nodeStats{classCounts: make([]float64, nc)}
					byCat[cat] = st
					order = append(order, cat)
				}
				ci, ok := l.classIdx[cvd.KeyAt(r, labelCol)]
				if !ok {
					continue
				}
				v := cvd.Val(r, 0)
				st.classCounts[ci] += v
				st.count += v
			}
			slices.Sort(order)
			for _, cat := range order {
				cands = append(cands, candidate{
					cond: Condition{Attr: attr, Op: query.EQ, Threshold: float64(cat)},
					left: *byCat[cat],
				})
			}
		}
	}
	return cands, nil
}
