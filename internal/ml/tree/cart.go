// Package tree learns classification and regression trees with the CART
// algorithm (paper §2, Figure 2) over the natural join of a database. The
// data-intensive work of each node — variance or Gini/entropy statistics for
// every candidate split, filtered by the conjunction of ancestor conditions —
// is one aggregate batch (the paper's "regression tree node" workload), and
// the batches of one tree level go to the LMFAO engine as one; the
// application layer only picks the best split.
//
// A materialize-then-scan learner (the MADlib / TensorFlow proxy) implements
// the same algorithm over the flat join result for comparison.
package tree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/query"
)

// Task selects the tree type.
type Task uint8

const (
	// Regression predicts a numeric label by the fragment mean; split cost
	// is the summed variance (paper's variance formula).
	Regression Task = iota
	// Classification predicts a categorical label by the fragment
	// majority; split cost is the Gini index by default.
	Classification
)

// Cost selects the classification impurity.
type Cost uint8

const (
	// Gini is 1 − Σ p².
	Gini Cost = iota
	// Entropy is −Σ p·log p.
	Entropy
)

// Spec configures tree learning. Defaults match the paper's experimental
// setup (§B): depth 4 (≤ 31 nodes), 20 buckets per continuous attribute,
// at least 1000 instances to split a node.
type Spec struct {
	Task        Task
	Continuous  []data.AttrID
	Categorical []data.AttrID
	Label       data.AttrID
	MaxDepth    int
	MinSplit    int
	Buckets     int
	Cost        Cost
}

// DefaultSpec fills the paper defaults.
func DefaultSpec(task Task, label data.AttrID) Spec {
	return Spec{Task: task, Label: label, MaxDepth: 4, MinSplit: 1000, Buckets: 20}
}

func (s *Spec) normalize() {
	if s.MaxDepth <= 0 {
		s.MaxDepth = 4
	}
	if s.MinSplit <= 0 {
		s.MinSplit = 1000
	}
	if s.Buckets <= 0 {
		s.Buckets = 20
	}
}

// Validate checks attribute kinds.
func (s Spec) Validate(db *data.Database) error {
	for _, a := range s.Continuous {
		if db.Attribute(a).Kind != data.Numeric {
			return fmt.Errorf("tree: continuous feature %q is not numeric", db.Attribute(a).Name)
		}
	}
	for _, a := range s.Categorical {
		if !db.Attribute(a).Kind.Discrete() {
			return fmt.Errorf("tree: categorical feature %q is numeric", db.Attribute(a).Name)
		}
	}
	lk := db.Attribute(s.Label).Kind
	if s.Task == Regression && lk != data.Numeric {
		return fmt.Errorf("tree: regression label %q is not numeric", db.Attribute(s.Label).Name)
	}
	if s.Task == Classification && !lk.Discrete() {
		return fmt.Errorf("tree: classification label %q is not discrete", db.Attribute(s.Label).Name)
	}
	return nil
}

// Condition is one decision-tree predicate X op t. Continuous conditions use
// LE/GT thresholds; categorical ones EQ/NE on a category code (the paper's
// per-category splits).
type Condition struct {
	Attr       data.AttrID
	Continuous bool
	Op         query.CmpOp
	Threshold  float64
}

// Factor renders the condition as the engine's Kronecker delta 1_{X op t}
// (paper eq. 8).
func (c Condition) Factor() query.Factor {
	return query.IndicatorF(c.Attr, c.Op, c.Threshold)
}

// Negated returns the complementary condition.
func (c Condition) Negated() Condition {
	switch c.Op {
	case query.LE:
		c.Op = query.GT
	case query.GT:
		c.Op = query.LE
	case query.EQ:
		c.Op = query.NE
	case query.NE:
		c.Op = query.EQ
	}
	return c
}

// String renders the condition for display.
func (c Condition) String(db *data.Database) string {
	return fmt.Sprintf("%s %s %g", db.Attribute(c.Attr).Name, c.Op, c.Threshold)
}

// Node is one tree node. Leaves have a nil SplitCond.
type Node struct {
	SplitCond   *Condition
	Left, Right *Node
	// Prediction is the label mean (regression) or majority class code
	// (classification) of the node's fragment.
	Prediction float64
	Count      float64
	Cost       float64
	Depth      int
}

// IsLeaf reports whether the node has no split.
func (n *Node) IsLeaf() bool { return n.SplitCond == nil }

// Model is a learned tree.
type Model struct {
	Spec Spec
	Root *Node
	// Nodes is the total node count.
	Nodes int
	// Classes lists the label categories (classification only).
	Classes []int64
}

// PredictRow evaluates the tree on row i of a materialized join result.
func (m *Model) PredictRow(flat *data.Relation, i int) (float64, error) {
	n := m.Root
	for !n.IsLeaf() {
		col, ok := flat.Col(n.SplitCond.Attr)
		if !ok {
			return 0, fmt.Errorf("tree: attribute %d missing from data", n.SplitCond.Attr)
		}
		if n.SplitCond.Op.Compare(col.Float(i), n.SplitCond.Threshold) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prediction, nil
}

// RMSE computes root-mean-square error over a materialized join (regression).
func (m *Model) RMSE(flat *data.Relation) (float64, error) {
	label, ok := flat.Col(m.Spec.Label)
	if !ok {
		return 0, fmt.Errorf("tree: label missing")
	}
	if flat.Len() == 0 {
		return 0, nil
	}
	var sse float64
	for i := 0; i < flat.Len(); i++ {
		p, err := m.PredictRow(flat, i)
		if err != nil {
			return 0, err
		}
		d := p - label.Float(i)
		sse += d * d
	}
	return math.Sqrt(sse / float64(flat.Len())), nil
}

// Accuracy computes classification accuracy over a materialized join.
func (m *Model) Accuracy(flat *data.Relation) (float64, error) {
	label, ok := flat.Col(m.Spec.Label)
	if !ok {
		return 0, fmt.Errorf("tree: label missing")
	}
	if flat.Len() == 0 {
		return 0, nil
	}
	hits := 0
	for i := 0; i < flat.Len(); i++ {
		p, err := m.PredictRow(flat, i)
		if err != nil {
			return 0, err
		}
		if int64(p) == label.Int(i) {
			hits++
		}
	}
	return float64(hits) / float64(flat.Len()), nil
}

// String renders the tree.
func (m *Model) String(db *data.Database) string {
	var b []byte
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n.IsLeaf() {
			b = append(b, fmt.Sprintf("%sleaf pred=%.4g n=%.0f\n", indent, n.Prediction, n.Count)...)
			return
		}
		b = append(b, fmt.Sprintf("%s%s (n=%.0f cost=%.4g)\n", indent, n.SplitCond.String(db), n.Count, n.Cost)...)
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(m.Root, "")
	return string(b)
}

// impurity computes the classification impurity of class counts.
func impurity(cost Cost, counts []float64) float64 {
	n := 0.0
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	v := 0.0
	switch cost {
	case Gini:
		v = 1
		for _, c := range counts {
			p := c / n
			v -= p * p
		}
	case Entropy:
		for _, c := range counts {
			if c > 0 {
				p := c / n
				v -= p * math.Log(p)
			}
		}
	}
	return v * n // weighted by fragment size
}

// variance computes the paper's regression cost Σy² − (Σy)²/n.
func variance(count, sum, sumSq float64) float64 {
	if count == 0 {
		return 0
	}
	return sumSq - sum*sum/count
}

// quantileThresholds returns up to k equal-frequency thresholds of a numeric
// column (the paper bucketizes continuous attributes into 20 buckets).
func quantileThresholds(vals []float64, k int) []float64 {
	if len(vals) == 0 || k <= 0 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var out []float64
	seen := map[float64]bool{}
	for i := 1; i <= k; i++ {
		idx := i * (len(sorted) - 1) / (k + 1)
		t := sorted[idx]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Float64s(out)
	return out
}
