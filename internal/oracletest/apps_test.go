package oracletest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	lmfao "repro"
	"repro/internal/moo"
)

// Application-layer parity over the serving API: every application entry
// point (linreg covar, polynomial regression, decision tree, Chow-Liu MI,
// data cube) must learn the same model from a Queryable backed by each of
// the three serving implementations — a one-shot Engine run (RunQueryable),
// a live Session snapshot, and a merged multi-shard ShardedSnapshot — while
// an update stream mutates the base data between rounds. One session
// maintains the CONCATENATION of all application batches and each
// application reads its window through SubQueryable, which is exactly the
// combined-batch serving pattern the API is designed for. The decision tree
// exercises the Requerier refinement hook on every backing.

// appsSpecs derives one specification per application from a generated
// schema's attribute pools.
type appsSpecs struct {
	covar lmfao.LinRegSpec
	poly  lmfao.PolySpec
	tree  lmfao.TreeSpec
	mi    []lmfao.AttrID
	cube  lmfao.CubeSpec
}

func genAppsSpecs(s *Schema) appsSpecs {
	label := s.Numeric[len(s.Numeric)-1]
	cont := s.Numeric[0]
	sp := appsSpecs{
		covar: lmfao.LinRegSpec{Continuous: []lmfao.AttrID{cont},
			Categorical: s.Discrete[:1], Label: label, Lambda: 0.5},
		poly: lmfao.PolySpec{Continuous: []lmfao.AttrID{cont}, Label: label, Lambda: 0.5},
		mi:   s.Discrete[:2],
		cube: lmfao.CubeSpec{Dims: s.Discrete[:2], Measures: []lmfao.AttrID{cont}},
	}
	sp.tree = lmfao.TreeSpec{Task: lmfao.RegressionTree, Continuous: []lmfao.AttrID{cont},
		Categorical: s.Discrete[:1], Label: label, MaxDepth: 3, MinSplit: 2, Buckets: 4}
	return sp
}

// combinedBatch concatenates the canonical application batches and returns
// the window boundaries: [0,c) covar, [c,p) poly, [p,m) MI, [m,d) cube.
func combinedBatch(db *lmfao.Database, sp appsSpecs) (batch []*lmfao.Query, c, p, m, d int) {
	batch = append(batch, lmfao.CovarBatch(sp.covar)...)
	c = len(batch)
	batch = append(batch, lmfao.PolynomialBatch(db, sp.poly)...)
	p = len(batch)
	batch = append(batch, lmfao.MIBatch(sp.mi)...)
	m = len(batch)
	batch = append(batch, lmfao.CubeBatch(sp.cube)...)
	d = len(batch)
	return batch, c, p, m, d
}

// renderTree canonicalizes a learned tree for comparison: split conditions,
// counts and predictions in pre-order. Dyadic base data makes the candidate
// statistics exact on every backing, so the trees must match verbatim.
func renderTree(m *lmfao.TreeModel) string {
	var b strings.Builder
	var walk func(n *lmfao.TreeNode, indent string)
	walk = func(n *lmfao.TreeNode, indent string) {
		if n == nil {
			return
		}
		if n.SplitCond != nil {
			fmt.Fprintf(&b, "%ssplit attr=%d cont=%v op=%v thr=%v n=%v\n",
				indent, n.SplitCond.Attr, n.SplitCond.Continuous, n.SplitCond.Op, n.SplitCond.Threshold, n.Count)
		} else {
			fmt.Fprintf(&b, "%sleaf pred=%v n=%v\n", indent, n.Prediction, n.Count)
		}
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(m.Root, "")
	return b.String()
}

// appsWindow carves a sub-batch window or fails the test.
func appsWindow(t *testing.T, q lmfao.Queryable, lo, hi int) lmfao.Queryable {
	t.Helper()
	sub, err := lmfao.SubQueryable(q, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// learnAll fits every application from one Queryable serving the combined
// batch and returns comparable renderings of the five models.
func learnAll(t *testing.T, label string, q lmfao.Queryable, db *lmfao.Database, sp appsSpecs, c, p, m, d int) (cm map[string]float64, poly []float64, tree string, mi [][]float64, cube []string) {
	t.Helper()
	covarQ := appsWindow(t, q, 0, c)
	covar, err := lmfao.BuildCovarMatrixFrom(covarQ, db, sp.covar)
	if err != nil {
		t.Fatalf("%s: covar: %v", label, err)
	}
	cm = covarByName(covar)
	cm["count"] = covar.Count

	pm, err := lmfao.LearnPolynomialRegressionFrom(appsWindow(t, q, c, p), db, sp.poly)
	if err != nil {
		t.Fatalf("%s: poly: %v", label, err)
	}
	poly = pm.Theta

	// The tree consults only the Requerier hook; hand it the covar window to
	// prove windows keep the hook.
	tm, err := lmfao.LearnDecisionTreeFrom(covarQ, db, sp.tree)
	if err != nil {
		t.Fatalf("%s: tree: %v", label, err)
	}
	tree = renderTree(tm)

	mir, err := lmfao.MutualInformationFrom(appsWindow(t, q, p, m), db, sp.mi)
	if err != nil {
		t.Fatalf("%s: mi: %v", label, err)
	}
	mi = make([][]float64, len(sp.mi))
	for i := range sp.mi {
		mi[i] = make([]float64, len(sp.mi))
		for j := range sp.mi {
			mi[i][j] = mir.MI.At(i, j)
		}
	}

	cr, err := lmfao.ComputeDataCubeFrom(appsWindow(t, q, m, d), db, sp.cube)
	if err != nil {
		t.Fatalf("%s: cube: %v", label, err)
	}
	for _, row := range cr.Flatten() {
		cube = append(cube, fmt.Sprintf("%v|%v", row.Dims, row.Values))
	}
	return cm, poly, tree, mi, cube
}

// diffApps compares two backings' renderings of all five models.
func diffApps(t *testing.T, label string, got, want struct {
	cm   map[string]float64
	poly []float64
	tree string
	mi   [][]float64
	cube []string
}) {
	t.Helper()
	if len(got.cm) != len(want.cm) {
		t.Fatalf("%s: covar has %d entries, want %d", label, len(got.cm), len(want.cm))
	}
	for k, wv := range want.cm {
		if gv, ok := got.cm[k]; !ok || !Approx.equal(gv, wv) {
			t.Fatalf("%s: covar[%s] = %v (present %v), want %v", label, k, gv, ok, wv)
		}
	}
	if len(got.poly) != len(want.poly) {
		t.Fatalf("%s: poly has %d coefficients, want %d", label, len(got.poly), len(want.poly))
	}
	for i := range want.poly {
		if !Approx.equal(got.poly[i], want.poly[i]) {
			t.Fatalf("%s: poly theta[%d] = %v, want %v", label, i, got.poly[i], want.poly[i])
		}
	}
	if got.tree != want.tree {
		t.Fatalf("%s: trees differ:\n--- got ---\n%s--- want ---\n%s", label, got.tree, want.tree)
	}
	for i := range want.mi {
		for j := range want.mi[i] {
			if !Approx.equal(got.mi[i][j], want.mi[i][j]) {
				t.Fatalf("%s: MI[%d][%d] = %v, want %v", label, i, j, got.mi[i][j], want.mi[i][j])
			}
		}
	}
	if len(got.cube) != len(want.cube) {
		t.Fatalf("%s: cube has %d rows, want %d", label, len(got.cube), len(want.cube))
	}
	for i := range want.cube {
		if got.cube[i] != want.cube[i] {
			t.Fatalf("%s: cube row %d = %s, want %s", label, i, got.cube[i], want.cube[i])
		}
	}
}

type appsModels = struct {
	cm   map[string]float64
	poly []float64
	tree string
	mi   [][]float64
	cube []string
}

// TestAppsQueryableParity is the acceptance oracle for the serving API:
// mid-update-stream, all five applications learned from a Session snapshot
// and from a 4-shard merged ShardedSnapshot must match the models learned
// from a from-scratch Engine recompute (RunQueryable) on the mutated
// database.
func TestAppsQueryableParity(t *testing.T) {
	seeds, rounds := int64(3), 3
	if testing.Short() {
		seeds, rounds = 1, 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1100 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			sp := genAppsSpecs(s)
			batch, c, p, m, d := combinedBatch(s.DB, sp)

			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true,
				Threads: 1 + int(seed%2), DomainParallelRows: 8}
			sess, err := lmfao.NewSession(s.DB, batch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			sharded, err := lmfao.NewShardedSession(s.DB, batch, opts, lmfao.ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			if _, err := sharded.Run(); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < rounds; round++ {
				// One randomized update, applied to both maintainers (the
				// sharded session owns partitioned copies of the same data).
				delta := GenDelta(rng, s.DB, 8)
				if _, err := sess.Apply(delta); err != nil {
					t.Fatalf("round %d: session apply (%s): %v", round, delta.Relation, err)
				}
				if _, err := sharded.Apply(delta); err != nil {
					t.Fatalf("round %d: sharded apply (%s): %v", round, delta.Relation, err)
				}

				// Reference: a from-scratch engine run over the mutated base.
				eng, err := moo.NewEngine(s.DB, freshOpts)
				if err != nil {
					t.Fatal(err)
				}
				oneShot, err := lmfao.RunQueryable(eng, batch)
				if err != nil {
					t.Fatalf("round %d: recompute: %v", round, err)
				}

				var ref, fromSess, fromShard appsModels
				ref.cm, ref.poly, ref.tree, ref.mi, ref.cube =
					learnAll(t, "recompute", oneShot, s.DB, sp, c, p, m, d)
				fromSess.cm, fromSess.poly, fromSess.tree, fromSess.mi, fromSess.cube =
					learnAll(t, "session", sess.Snapshot(), s.DB, sp, c, p, m, d)
				fromShard.cm, fromShard.poly, fromShard.tree, fromShard.mi, fromShard.cube =
					learnAll(t, "sharded", sharded.Snapshot(), s.DB, sp, c, p, m, d)

				diffApps(t, fmt.Sprintf("round %d: session vs recompute", round), fromSess, ref)
				diffApps(t, fmt.Sprintf("round %d: sharded vs recompute", round), fromShard, ref)
			}
		})
	}
}
