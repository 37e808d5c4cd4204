package core

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

func TestDescribe(t *testing.T) {
	_, tree, attrs := chain(t, 4, 10, 21)
	qs := []*query.Query{
		query.NewQuery("per_x2", []data.AttrID{attrs[2]}, query.CountAgg()),
		query.NewQuery("total", nil, query.CountAgg()),
	}
	p, err := BuildPlan(tree, qs, PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Describe()
	for _, want := range []string{
		"batch: 2 queries",
		"roots:",
		"per_x2",
		"group-by (x2)",
		"directional views:",
		"groups (dependency order):",
		"Q[per_x2]",
		"order (x2:2, x3:3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q in:\n%s", want, out)
		}
	}
	// Dependency annotations appear for non-leaf groups.
	if !strings.Contains(out, "after {") {
		t.Errorf("no group dependencies rendered:\n%s", out)
	}
}

// TestDescribeShowsRootModel: with multiple roots, every root line carries
// the cost model's emission estimate, and a query the model moved names
// the paper's root.
func TestDescribeShowsRootModel(t *testing.T) {
	ds, batch := favoritaMI(t)
	p, err := BuildPlan(ds.Tree, batch, PlanOptions{MultiRoot: true, MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Describe()
	moved := 0
	for qi := range p.Queries {
		if p.Roots[qi] != p.PaperRoots[qi] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the model moved no MI query off its paper root")
	}
	if got := strings.Count(out, " emits ~"); got != len(p.Queries) {
		t.Errorf("%d root lines carry an estimate, want %d:\n%s", got, len(p.Queries), out)
	}
	if got := strings.Count(out, "(paper root "); got != moved {
		t.Errorf("%d root lines name a paper root, want %d:\n%s", got, moved, out)
	}

	single, err := BuildPlan(ds.Tree, batch, PlanOptions{MultiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := single.Describe(); strings.Contains(out, " emits ~") {
		t.Errorf("a single-root plan prints root estimates:\n%s", out)
	}
}
