package tree

import (
	"slices"

	"repro/internal/data"
	"repro/internal/query"
)

// LearnMaterialized is the structure-agnostic competitor (the MADlib /
// TensorFlow BoostedTrees proxy): CART over the materialized join result,
// computing every node's split statistics by scanning the node's row set.
// It uses the same thresholds, candidate order and tie-breaking as Learn, so
// on identical data both learners grow identical trees.
func LearnMaterialized(flat *data.Relation, db *data.Database, spec Spec) (*Model, error) {
	spec.normalize()
	if err := spec.Validate(db); err != nil {
		return nil, err
	}
	thresholds, err := Thresholds(db, spec)
	if err != nil {
		return nil, err
	}
	l := &flatLearner{flat: flat, spec: spec, thresholds: thresholds}
	if err := l.resolve(); err != nil {
		return nil, err
	}
	rows := make([]int32, flat.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	if spec.Task == Classification {
		codes := map[int64]bool{}
		for i := 0; i < flat.Len(); i++ {
			codes[l.labelCol.Int(i)] = true
		}
		list := make([]int64, 0, len(codes))
		for c := range codes {
			list = append(list, c)
		}
		l.classes, l.classIdx = classIndex(list)
	}
	m := &Model{Spec: spec, Classes: l.classes}
	m.Root = l.grow(rows, 0)
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		count++
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(m.Root)
	m.Nodes = count
	return m, nil
}

type flatLearner struct {
	flat       *data.Relation
	spec       Spec
	thresholds map[data.AttrID][]float64
	labelCol   data.Column
	cols       map[data.AttrID]data.Column
	classes    []int64
	classIdx   map[int64]int
}

func (l *flatLearner) resolve() error {
	l.cols = map[data.AttrID]data.Column{}
	var ok bool
	l.labelCol, ok = l.flat.Col(l.spec.Label)
	if !ok {
		return errMissing(l.spec.Label)
	}
	for _, a := range append(append([]data.AttrID(nil), l.spec.Continuous...), l.spec.Categorical...) {
		c, ok := l.flat.Col(a)
		if !ok {
			return errMissing(a)
		}
		l.cols[a] = c
	}
	return nil
}

type missingAttrError data.AttrID

func (e missingAttrError) Error() string { return "tree: attribute missing from join result" }

func errMissing(a data.AttrID) error { return missingAttrError(a) }

func (l *flatLearner) stats(rows []int32) nodeStats {
	if l.spec.Task == Regression {
		st := nodeStats{}
		for _, r := range rows {
			y := l.labelCol.Float(int(r))
			st.count++
			st.sum += y
			st.sumSq += y * y
		}
		return st
	}
	st := nodeStats{classCounts: make([]float64, len(l.classes))}
	for _, r := range rows {
		st.classCounts[l.classIdx[l.labelCol.Int(int(r))]]++
	}
	st.count = float64(len(rows))
	return st
}

func (l *flatLearner) grow(rows []int32, depth int) *Node {
	stats := l.stats(rows)
	node := &Node{
		Prediction: stats.prediction(l.spec, l.classes),
		Count:      stats.count,
		Cost:       stats.cost(l.spec),
		Depth:      depth,
	}
	if depth >= l.spec.MaxDepth || stats.count < float64(l.spec.MinSplit) || node.Cost <= 1e-12 {
		return node
	}
	cands := l.candidates(rows)
	best, _ := chooseSplit(l.spec, stats, cands)
	if best == nil {
		return node
	}
	cond := best.cond
	node.SplitCond = &cond
	var left, right []int32
	col := l.cols[cond.Attr]
	for _, r := range rows {
		if cond.Op.Compare(col.Float(int(r)), cond.Threshold) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	node.Left = l.grow(left, depth+1)
	node.Right = l.grow(right, depth+1)
	return node
}

// candidates computes the left-side statistics of every candidate split by
// scanning the node's rows — once per (attribute, threshold) pass structure
// equivalent to what a flat-data learner does.
func (l *flatLearner) candidates(rows []int32) []candidate {
	var cands []candidate
	nc := len(l.classes)
	newStats := func() nodeStats {
		if l.spec.Task == Regression {
			return nodeStats{}
		}
		return nodeStats{classCounts: make([]float64, nc)}
	}
	accum := func(st *nodeStats, r int32) {
		if l.spec.Task == Regression {
			y := l.labelCol.Float(int(r))
			st.count++
			st.sum += y
			st.sumSq += y * y
		} else {
			st.classCounts[l.classIdx[l.labelCol.Int(int(r))]]++
			st.count++
		}
	}
	for _, attr := range l.spec.Continuous {
		if l.spec.Task == Regression && attr == l.spec.Label {
			continue
		}
		col := l.cols[attr]
		for _, t := range l.thresholds[attr] {
			st := newStats()
			for _, r := range rows {
				if col.Float(int(r)) <= t {
					accum(&st, r)
				}
			}
			cands = append(cands, candidate{
				cond: Condition{Attr: attr, Continuous: true, Op: query.LE, Threshold: t},
				left: st,
			})
		}
	}
	for _, attr := range l.spec.Categorical {
		if attr == l.spec.Label {
			continue
		}
		col := l.cols[attr]
		byCat := map[int64]*nodeStats{}
		var order []int64
		for _, r := range rows {
			c := col.Int(int(r))
			st, ok := byCat[c]
			if !ok {
				s := newStats()
				st = &s
				byCat[c] = st
				order = append(order, c)
			}
			accum(st, r)
		}
		slices.Sort(order)
		for _, c := range order {
			cands = append(cands, candidate{
				cond: Condition{Attr: attr, Op: query.EQ, Threshold: float64(c)},
				left: *byCat[c],
			})
		}
	}
	return cands
}
