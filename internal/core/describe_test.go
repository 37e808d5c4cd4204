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
