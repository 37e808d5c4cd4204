package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
)

// TestBatchOracle cross-checks every engine variant against the baseline on
// randomized schemas and query batches, demanding bit-exact agreement.
func TestBatchOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			if err := CheckBatch(s.DB, queries, Exact); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sessionSteps runs a maintenance session over the database: after each
// randomized update batch it checks the maintained result against the
// baseline and against a from-scratch recompute of the full view DAG.
func sessionSteps(t *testing.T, rng *rand.Rand, db *lmfao.Database, queries []*query.Query, opts moo.Options, steps, maxRows int, tol Tolerance) {
	t.Helper()
	sess, err := lmfao.NewSession(db, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		d := GenDelta(rng, db, maxRows)
		stats, err := sess.Apply(d)
		if err != nil {
			t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
		}
		for _, st := range stats {
			if !st.Incremental {
				t.Logf("step %d: fell back to full recompute for %s", step, st.Relation)
			}
		}
		if err := CheckMaintained(sess.Engine(), sess.Result(), queries, tol); err != nil {
			t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
		}
	}
}

// TestIVMSynthetic exercises incremental maintenance on randomized synthetic
// schemas with bit-exact comparison.
func TestIVMSynthetic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
			if seed%2 == 1 {
				opts.Threads = 3
				opts.DomainParallelRows = 4
			}
			sessionSteps(t, rng, s.DB, queries, opts, 5, 12, Exact)
		})
	}
}

// datasetQueries builds a modest mixed batch (scalar count, grouped sums)
// over a generated paper dataset.
func datasetQueries(ds *datagen.Dataset) []*query.Query {
	qs := []*query.Query{
		query.NewQuery("count", nil, query.CountAgg()),
		query.NewQuery("sum", nil, query.SumAgg(ds.CubeMeasures[0])),
	}
	qs = append(qs, query.NewQuery("cube1", ds.CubeDims[:1],
		query.CountAgg(), query.SumAgg(ds.CubeMeasures[0])))
	qs = append(qs, query.NewQuery("cube2", ds.CubeDims[:2],
		query.SumAgg(ds.CubeMeasures[1])))
	return qs
}

// testIVMDataset runs the maintenance oracle over a generated paper dataset.
// Real-valued data means reordered float sums drift, so comparison is
// tolerance-based.
func testIVMDataset(t *testing.T, name string) {
	build, err := datagen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	// A scale this small builds every table at its minimum size.
	ds, err := build(datagen.Config{Scale: 1e-9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	opts := moo.DefaultOptions()
	opts.Threads = 2
	sessionSteps(t, rng, ds.DB, datasetQueries(ds), opts, 4, 20, Approx)
}

func TestIVMRetailer(t *testing.T) { testIVMDataset(t, "retailer") }

func TestIVMFavorita(t *testing.T) { testIVMDataset(t, "favorita") }

// TestIVMSemiJoinDimensionStream drives dimension-table-only update streams
// through maintenance on star/snowflake schemas, demanding bit-exact
// agreement with the baseline and the full recompute. Across the streams
// both scan strategies at unchanged nodes must fire: the row-id-batched
// restricted scan (IDScanGroups) and the full scan (FullScanGroups), and no
// round may scan more rows than a full pass would.
func TestIVMSemiJoinDimensionStream(t *testing.T) {
	idScanSeen, fullScanSeen := false, false
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(200 + seed))
			s, err := genStar(rng, seed%2 == 1)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
			sess, err := lmfao.NewSession(s.DB, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			var dims []*data.Relation
			for _, r := range s.DB.Relations() {
				if r.Name != "F" {
					dims = append(dims, r)
				}
			}
			for step := 0; step < 8; step++ {
				d := GenDeltaOn(rng, dims[rng.Intn(len(dims))], 10)
				stats, err := sess.Apply(d)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, d.Relation, err)
				}
				for _, st := range stats {
					if !st.Incremental {
						t.Fatalf("step %d: fell back to full recompute for %s", step, st.Relation)
					}
					if st.ScannedRows > st.BaseRows {
						t.Fatalf("step %d: scanned %d > base %d", step, st.ScannedRows, st.BaseRows)
					}
					if st.IDScanGroups+st.FullScanGroups > st.KernelGroups {
						t.Fatalf("step %d: %d id scans and %d full scans exceed %d kernel groups",
							step, st.IDScanGroups, st.FullScanGroups, st.KernelGroups)
					}
					idScanSeen = idScanSeen || st.IDScanGroups > 0
					fullScanSeen = fullScanSeen || st.FullScanGroups > 0
				}
				if err := CheckMaintained(sess.Engine(), sess.Result(), queries, Exact); err != nil {
					t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
				}
			}
			if cs := sess.Engine().KernelCacheStats(); cs.Size == 0 || cs.Hits == 0 {
				t.Errorf("kernel cache never reused a kernel: %+v", cs)
			}
		})
	}
	if !idScanSeen {
		t.Error("row-id-batched restricted scan never fired across the streams")
	}
	if !fullScanSeen {
		t.Error("full scan never fired across the streams")
	}
}

// TestIVMBagPreRunMutation mutates a bag member through a session BEFORE its
// first Run: the materialized bag (built at session creation) must be synced
// even though there is no cached result to maintain, or the deferred first
// Run silently serves the stale bag.
func TestIVMBagPreRunMutation(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(500 + seed))
			s, err := genCyclic(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
			sess, err := lmfao.NewSession(s.DB, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			var member *data.Relation
			for _, n := range sess.Engine().Tree().Nodes {
				if n.IsBag() {
					member = s.DB.Relation(n.Members[0])
					break
				}
			}
			if member == nil {
				t.Fatal("cyclic schema produced no bag")
			}
			d := GenDeltaOn(rng, member, 6)
			for d.Empty() {
				d = GenDeltaOn(rng, member, 6)
			}
			// No Run yet: Apply mutates the base, syncs the bag, and runs the
			// deferred first compute.
			if _, err := sess.Apply(d); err != nil {
				t.Fatalf("pre-Run apply (%s +%d -%d): %v", d.Relation, d.InsertRows(), d.DeleteRows(), err)
			}
			if err := CheckMaintained(sess.Engine(), sess.Result(), queries, Exact); err != nil {
				t.Fatalf("after pre-Run apply (%s +%d -%d): %v", d.Relation, d.InsertRows(), d.DeleteRows(), err)
			}
		})
	}
}

// TestIVMBagUpdateStream drives update streams through cyclic schemas whose
// join trees fold relations into materialized hypertree bags: bag-member
// updates must be maintained incrementally (no full-recompute fallback),
// reported via ApplyStats.Bag, and stay bit-exact against the baseline and a
// fresh recompute (which also proves the bag relation is kept in sync).
func TestIVMBagUpdateStream(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(300 + seed))
			s, err := genCyclic(rng)
			if err != nil {
				t.Fatal(err)
			}
			queries := GenQueries(rng, s)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
			if seed%3 == 2 {
				opts.Threads = 3
				opts.DomainParallelRows = 4
			}
			sess, err := lmfao.NewSession(s.DB, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			tree := sess.Engine().Tree()
			var bagMembers []*data.Relation
			for _, n := range tree.Nodes {
				if n.IsBag() {
					for _, m := range n.Members {
						bagMembers = append(bagMembers, s.DB.Relation(m))
					}
				}
			}
			if len(bagMembers) < 2 {
				t.Fatalf("cyclic schema produced no bag; tree:\n%s", tree)
			}
			bagSeen := false
			for step := 0; step < 6; step++ {
				var d data.Delta
				if step%2 == 0 {
					d = GenDeltaOn(rng, bagMembers[rng.Intn(len(bagMembers))], 8)
				} else {
					d = GenDelta(rng, s.DB, 8)
				}
				stats, err := sess.Apply(d)
				if err != nil {
					t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
				}
				folded := tree.NodeByRelation(d.Relation) == nil
				for _, st := range stats {
					if !st.Incremental {
						t.Fatalf("step %d: bag-member update for %s fell back to full recompute", step, st.Relation)
					}
					if folded && st.Bag == "" {
						t.Fatalf("step %d: folded member %s maintained without Bag stat", step, d.Relation)
					}
					if st.Bag != "" {
						bagSeen = true
					}
				}
				if err := CheckMaintained(sess.Engine(), sess.Result(), queries, Exact); err != nil {
					t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
				}
			}
			if !bagSeen {
				t.Error("no bag-member update exercised")
			}
		})
	}
}
