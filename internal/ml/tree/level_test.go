package tree

import (
	"math"
	"strings"
	"testing"

	"repro/internal/moo"
	"repro/internal/query"
)

// nodeRunLearner grows the reference tree: depth-first, every node's
// candidate splits from its own NodeBatch in a run of its own, as the
// learner did before it batched a level. It records the depths it ran at.
type nodeRunLearner struct {
	*engineLearner
	runDepths map[int]bool
	mixed     bool // some depth had a node stopped by MinSplit and a node evaluated
	stopped   map[int]bool
}

func (r *nodeRunLearner) grow(t *testing.T, conds []Condition, stats nodeStats, depth int) *Node {
	node := &Node{
		Prediction: stats.prediction(r.spec, r.classes),
		Count:      stats.count,
		Cost:       stats.cost(r.spec),
		Depth:      depth,
	}
	if depth >= r.spec.MaxDepth || node.Cost <= 1e-12 {
		return node
	}
	if stats.count < float64(r.spec.MinSplit) {
		r.stopped[depth] = true
		r.mixed = r.mixed || r.runDepths[depth]
		return node
	}
	r.runDepths[depth] = true
	r.mixed = r.mixed || r.stopped[depth]
	results, err := r.run(NodeBatch(r.spec, conds, r.thresholds))
	if err != nil {
		t.Fatal(err)
	}
	cands, err := r.candidates(results)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := chooseSplit(r.spec, stats, cands)
	if best == nil {
		return node
	}
	cond := best.cond
	node.SplitCond = &cond
	node.Left = r.grow(t, childConds(conds, cond), best.left, depth+1)
	node.Right = r.grow(t, childConds(conds, cond.Negated()), stats.minus(best.left), depth+1)
	return node
}

// sameBits reports whether two trees agree bit for bit in every node's
// statistics and split.
func sameBits(a, b *Node) bool {
	if math.Float64bits(a.Count) != math.Float64bits(b.Count) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) ||
		math.Float64bits(a.Prediction) != math.Float64bits(b.Prediction) ||
		a.Depth != b.Depth || a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return true
	}
	return *a.SplitCond == *b.SplitCond && sameBits(a.Left, b.Left) && sameBits(a.Right, b.Right)
}

// TestLevelRunsMatchNodeRuns: the learner evaluates a tree level's frontier
// in one run, so a tree costs one run for the root statistics plus one per
// level holding a node that may be split, and every node — statistics and
// split — is bit-identical to the tree grown from one run per node on the
// same engine. The cases cover regression and classification at depth 3, a
// frontier where MinSplit stops some nodes and not others, and a tree that
// stops growing before its depth limit.
func TestLevelRunsMatchNodeRuns(t *testing.T) {
	reg, regSpec := regressionDB(t, 600)
	cls, clsSpec := classificationDB(t, 800)
	mixed := regSpec
	mixed.MinSplit = 150
	early := clsSpec
	early.MaxDepth, early.MinSplit = 8, 100
	for _, c := range []struct {
		name      string
		spec      Spec
		eng       *moo.Engine
		mixed     bool // a frontier must mix stopped and evaluated nodes
		earlyStop bool // fewer levels must run than MaxDepth allows
	}{
		{"regression", regSpec, newEng(t, reg), false, false},
		{"classification", clsSpec, newEng(t, cls), false, false},
		{"regression MinSplit", mixed, newEng(t, reg), true, false},
		{"classification stops early", early, newEng(t, cls), false, true},
	} {
		runs := 0
		run := func(queries []*query.Query) ([]*moo.ViewData, error) {
			runs++
			res, err := c.eng.Run(queries)
			if err != nil {
				return nil, err
			}
			return res.Results, nil
		}
		m, err := LearnWith(run, c.eng.DB(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		levelRuns := runs

		spec := c.spec
		spec.normalize()
		th, err := Thresholds(c.eng.DB(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := &nodeRunLearner{
			engineLearner: &engineLearner{run: run, spec: spec, thresholds: th},
			runDepths:     map[int]bool{},
			stopped:       map[int]bool{},
		}
		root, classes, err := ref.rootStats()
		if err != nil {
			t.Fatal(err)
		}
		ref.classes = classes
		want := ref.grow(t, nil, root, 0)
		if !sameBits(m.Root, want) {
			t.Fatalf("%s: level runs grew\n%s\none run per node grew\n%s", c.name,
				m.String(c.eng.DB()), (&Model{Root: want}).String(c.eng.DB()))
		}
		if levelRuns != 1+len(ref.runDepths) {
			t.Fatalf("%s: %d runs, want 1 + %d levels with a node to split", c.name, levelRuns, len(ref.runDepths))
		}
		if m.Root.IsLeaf() || c.mixed && !ref.mixed || c.earlyStop && len(ref.runDepths) >= spec.MaxDepth {
			t.Fatalf("%s: case not covered: leaf root %v, mixed frontier %v, %d of %d levels ran",
				c.name, m.Root.IsLeaf(), ref.mixed, len(ref.runDepths), spec.MaxDepth)
		}
	}
}

// TestUnsortedCategoriesRejected: RunBatch must return views sorted by their
// group-by. A backend breaking that would reorder the categorical split
// candidates, and with them the ties between splits; the learner fails
// instead.
func TestUnsortedCategoriesRejected(t *testing.T) {
	db, spec := regressionDB(t, 600)
	eng := newEng(t, db)
	runs := 0
	run := func(queries []*query.Query) ([]*moo.ViewData, error) {
		runs++
		res, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		// The root's level batch: swap the first and last row of its first
		// categorical output.
		if runs == 2 && res.Results[1].NumRows() > 1 {
			vd := res.Results[1]
			last := vd.NumRows() - 1
			for _, col := range vd.Keys {
				col[0], col[last] = col[last], col[0]
			}
			for c := 0; c < vd.Stride; c++ {
				vd.Vals[c], vd.Vals[last*vd.Stride+c] = vd.Vals[last*vd.Stride+c], vd.Vals[c]
			}
		}
		return res.Results, nil
	}
	if _, err := LearnWith(run, eng.DB(), spec); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("unsorted categories: err %v", err)
	}
}
