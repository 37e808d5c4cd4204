package moo_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

// isSubsequence reports whether every attribute of sub appears in order, in
// the same relative order.
func isSubsequence(sub, order []data.AttrID) bool {
	i := 0
	for _, a := range order {
		if i < len(sub) && sub[i] == a {
			i++
		}
	}
	return i == len(sub)
}

// TestGroupOrdersRestrictNodeOrder pins that the join-attribute order is a
// per-node plan decision: on retailer's covar and rtnode batches and
// favorita's mi and cube batches, every Run group and every maintenance
// kernel (for a delta at each node) scans in a subsequence of its node's
// plan.AttrOrder. At scale 0.0025 retailer's Weather has fewer dates than
// locations, so the domain-size order would bind the wide Location→Weather
// view at Weather's last depth, once per row; the covar plan binds it
// shallower.
func TestGroupOrdersRestrictNodeOrder(t *testing.T) {
	retailer, err := datagen.Retailer(datagen.Config{Scale: 0.0025, Seed: 2019})
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
	for _, c := range []struct {
		name    string
		ds      *datagen.Dataset
		queries []*query.Query
	}{
		{"retailer covar", retailer, workloads.CovarMatrix(retailer)},
		{"retailer rtnode", retailer, rtnode},
		{"favorita mi", favorita, workloads.MutualInfo(favorita)},
		{"favorita cube", favorita, workloads.DataCube(favorita)},
	} {
		opts := moo.DefaultOptions()
		opts.TrackCounts = true
		e := moo.NewEngineWithTree(c.ds.DB, c.ds.Tree, opts)
		plan, err := e.PlanBatch(c.queries)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, node int, s moo.ScanShape, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if !isSubsequence(s.Order, plan.AttrOrder[node]) {
				t.Fatalf("%s: %s at %s scans in %v, not a subsequence of the node order %v",
					c.name, what, plan.Tree.Nodes[node].Rel.Name, s.Order, plan.AttrOrder[node])
			}
		}
		for _, g := range plan.Groups {
			s, err := moo.GroupScanShape(plan, g)
			check("group", g.Node, s, err)
		}
		kernels := 0
		for changed := range plan.Tree.Nodes {
			sched, err := ivm.Analyze(plan, changed)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range sched.Steps {
				s, err := e.KernelScanShape(plan, changed, st)
				check("kernel", st.Node, s, err)
				kernels++
			}
		}
		if kernels == 0 {
			t.Fatalf("%s: no kernels compiled", c.name)
		}
		if c.name == "retailer covar" {
			checkWeatherBind(t, plan)
		}
	}
}

// checkWeatherBind requires the Location→Weather view to bind above the last
// depth of every Weather scan that reads it.
func checkWeatherBind(t *testing.T, plan *core.Plan) {
	t.Helper()
	node := map[string]int{}
	for _, n := range plan.Tree.Nodes {
		node[n.Rel.Name] = n.ID
	}
	reads := 0
	for _, v := range plan.Views {
		if v.From != node["Location"] || v.To != node["Weather"] {
			continue
		}
		for _, g := range plan.Groups {
			s, err := moo.GroupScanShape(plan, g)
			if err != nil {
				t.Fatal(err)
			}
			d, ok := s.BindDepth[v.ID]
			if !ok {
				continue
			}
			reads++
			if d >= len(s.Order)-1 {
				t.Fatalf("Location→Weather view %d binds at depth %d of Weather's order %v", v.ID, d, s.Order)
			}
		}
	}
	if reads == 0 {
		t.Fatal("no Weather scan reads a Location→Weather view")
	}
}
