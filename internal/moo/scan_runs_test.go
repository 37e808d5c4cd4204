package moo_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// TestScanRunsMatchEntries: lookup runs filled by one copy and emissions
// added as runs give the same bits as the per-slot and per-entry walks, on
// the retailer covar (with and without tuple counts), rtnode and depth-3
// tree-level batches and the favorita mi and cube batches at scale 0.0005,
// compiled and interpreted. It also pins that the runs are taken, since a
// silent fall-back would pass every oracle: in the tree-level batch,
// Inventory's ksn depth fetches Items aggregates in a run of at least 80
// slots, and the Inventory → Items view is emitted in runs.
func TestScanRunsMatchEntries(t *testing.T) {
	retailer, err := datagen.Retailer(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		t.Fatal(err)
	}
	favorita, err := datagen.Favorita(datagen.Config{Scale: 0.0005, Seed: 2019})
	if err != nil {
		t.Fatal(err)
	}
	rtnode, err := workloads.RTNode(retailer)
	if err != nil {
		t.Fatal(err)
	}
	level := treeLevelBatch(t, retailer)
	cases := []struct {
		name    string
		ds      *datagen.Dataset
		queries []*query.Query
		counts  bool
	}{
		{"retailer covar", retailer, workloads.CovarMatrix(retailer), false},
		{"retailer covar, counts", retailer, workloads.CovarMatrix(retailer), true},
		{"retailer rtnode", retailer, rtnode, false},
		{"retailer tree level", retailer, level, false},
		{"favorita mi", favorita, workloads.MutualInfo(favorita), false},
		{"favorita cube", favorita, workloads.DataCube(favorita), false},
	}
	for _, c := range cases {
		for _, compiled := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s, compiled %v", c.name, compiled), func(t *testing.T) {
				opts := moo.DefaultOptions()
				opts.Compiled, opts.TrackCounts = compiled, c.counts
				eng := moo.NewEngineWithTree(c.ds.DB, c.ds.Tree, opts)
				res, err := eng.Run(c.queries)
				if err != nil {
					t.Fatal(err)
				}
				groups := moo.CheckScanRuns(t, eng, res)
				if c.name == "retailer tree level" && compiled {
					pinTreeLevelRuns(t, c.ds, res.Plan, groups)
				}
			})
		}
	}
}

// pinTreeLevelRuns fails unless an Inventory group of the tree-level plan
// fetches at its ksn depth a lookup run of at least 80 slots and emits its
// view to Items in runs.
func pinTreeLevelRuns(t *testing.T, ds *datagen.Dataset, plan *core.Plan, groups []moo.GroupRuns) {
	t.Helper()
	ksn, ok := ds.DB.AttrByName("ksn")
	if !ok {
		t.Fatal("retailer has no ksn attribute")
	}
	longest, toItems := 0, false
	for _, g := range groups {
		if g.Node != "Inventory" {
			continue
		}
		if d := slices.Index(g.Order, ksn); d >= 0 {
			longest = max(longest, g.LongestLookup[d+1])
		}
		for _, id := range g.RunViews {
			if v := plan.Views[id]; !v.IsOutput() && plan.Tree.Nodes[v.To].Rel.Name == "Items" {
				toItems = true
			}
		}
	}
	if longest < 80 || !toItems {
		t.Fatalf("Inventory: longest lookup run at ksn %d (want ≥ 80), Items view emitted in runs %v", longest, toItems)
	}
}
