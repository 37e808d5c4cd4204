package moo

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/data"
)

// GroupRuns is what checkScanRuns saw of one group's compiled runs: the
// group's node and scan order, the longest lookup run of the global slots
// (index 0) and of each depth d (index d+1), and the IDs of the views with
// an emit group compiled to runs.
type GroupRuns struct {
	Node          string
	Order         []data.AttrID
	LongestLookup []int
	RunViews      []int
}

// checkScanRuns scans every group of res's plan twice with e, over res's
// materialized inputs: as compiled, and with every lookup run split into
// single slots and every emit group's runs cleared, so each entry takes the
// per-entry walk. Every builder view must be the same bits both ways.
func checkScanRuns(t *testing.T, e *Engine, res *BatchResult) []GroupRuns {
	t.Helper()
	var out []GroupRuns
	for _, g := range res.Plan.Groups {
		gp, runs := scannedGroup(t, e, res.Plan, g, res.Materialized)
		gr := GroupRuns{Node: gp.node.Rel.Name, Order: gp.order, LongestLookup: make([]int, gp.L+1)}
		for d, ls := range gp.lookups {
			for _, l := range ls {
				gr.LongestLookup[d] = max(gr.LongestLookup[d], l.n)
			}
		}
		for _, eg := range gp.emitGroups {
			if eg.runs != nil {
				gr.RunViews = append(gr.RunViews, gp.views[eg.view].ID)
			}
		}
		out = append(out, gr)

		ep := boundGroup(t, e, res.Plan, g)
		for d, ls := range ep.lookups {
			var single []lookupRun
			for _, l := range ls {
				for i := 0; i < l.n; i++ {
					single = append(single, lookupRun{reg: l.reg + i, n: 1, input: l.input, col: l.col + i})
				}
			}
			ep.lookups[d] = single
		}
		for i := range ep.emitGroups {
			ep.emitGroups[i].runs = nil
		}
		entries := scanBound(t, e, ep, res.Materialized)
		for i, v := range gp.views {
			label := fmt.Sprintf("group %d (%s) view %d", g.ID, gr.Node, v.ID)
			sameBits(t, label, runs[i].finalize(gp.targets[i]), entries[i].finalize(ep.targets[i]))
		}
	}
	return out
}

// sameBits fails unless got and want have the same shape, keys and values
// under math.Float64bits.
func sameBits(t *testing.T, label string, got, want *ViewData) {
	t.Helper()
	if got.rows != want.rows || got.Stride != want.Stride || !reflect.DeepEqual(got.GroupBy, want.GroupBy) {
		t.Fatalf("%s: shape %dx%d %v, want %dx%d %v", label, got.rows, got.Stride, got.GroupBy, want.rows, want.Stride, want.GroupBy)
	}
	for c := range want.Keys {
		if !reflect.DeepEqual(got.Keys[c][:got.rows], want.Keys[c][:want.rows]) {
			t.Fatalf("%s: key column %d differs", label, c)
		}
	}
	for i, w := range want.Vals[:want.rows*want.Stride] {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(w) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got.Vals[i], w)
		}
	}
}

// TestLookupRunCuts: a lookup run is a maximal stretch of lookup slots, in
// consecutive registers, reading consecutive columns of one input. An input
// change, a column gap, a repeated column (interpreted plans do not intern
// lookups) and a local slot each cut it; local slots are listed apart.
func TestLookupRunCuts(t *testing.T) {
	lk := func(input, col int) slotSpec { return slotSpec{kind: lookupSlot, input: input, col: col} }
	local := slotSpec{kind: localSlot}
	cases := []struct {
		name   string
		slots  []slotSpec
		runs   []lookupRun // registers start at 1: the depth is the plan's first
		locals []int
	}{
		{"consecutive", []slotSpec{lk(0, 4), lk(0, 5), lk(0, 6)}, []lookupRun{{1, 3, 0, 4}}, nil},
		{"input change", []slotSpec{lk(0, 0), lk(0, 1), lk(1, 2)}, []lookupRun{{1, 2, 0, 0}, {3, 1, 1, 2}}, nil},
		{"column gap", []slotSpec{lk(0, 0), lk(0, 2), lk(0, 3)}, []lookupRun{{1, 1, 0, 0}, {2, 2, 0, 2}}, nil},
		{"repeated column", []slotSpec{lk(0, 3), lk(0, 3), lk(0, 4)}, []lookupRun{{1, 1, 0, 3}, {2, 2, 0, 3}}, nil},
		{"local slot", []slotSpec{lk(0, 0), local, lk(0, 1)}, []lookupRun{{1, 1, 0, 0}, {3, 1, 0, 1}}, []int{1}},
		{"locals only", []slotSpec{local, local}, nil, []int{0, 1}},
	}
	for _, c := range cases {
		gp := &groupPlan{L: 1, depthSlots: [][]slotSpec{c.slots}, regBase: []int{1, 1}}
		gp.buildSlotRuns()
		if !reflect.DeepEqual(gp.lookups[1], c.runs) || !reflect.DeepEqual(gp.locals[1], c.locals) || len(gp.lookups[0]) != 0 {
			t.Errorf("%s: lookups %v, locals %v; want %v, %v", c.name, gp.lookups, gp.locals[1], c.runs, c.locals)
		}
	}
}

// TestEmitRunCuts: an emit group compiles to runs only when its check-free
// walk multiplies by exactly 1 where runs skip it — every coefficient 1, the
// second prefix column register 0, no carried view — and a run covers
// consecutive columns along which either the running sum or the register
// steps by 1, the same one for the whole run.
func TestEmitRunCuts(t *testing.T) {
	type arrays struct{ col, sfx, pre []int32 }
	cases := []struct {
		name string
		in   arrays
		runs []emitRun
	}{
		{"sums", arrays{[]int32{0, 1, 2}, []int32{5, 6, 7}, []int32{0, 0, 0}}, []emitRun{{0, 5, 0, 3, false}}},
		{"scaled sums", arrays{[]int32{2, 3}, []int32{0, 1}, []int32{4, 4}}, []emitRun{{2, 0, 4, 2, false}}},
		{"registers", arrays{[]int32{0, 1, 2}, []int32{3, 3, 3}, []int32{4, 5, 6}}, []emitRun{{0, 3, 4, 3, true}}},
		{"both step", arrays{[]int32{0, 1}, []int32{3, 4}, []int32{4, 5}}, []emitRun{{0, 3, 4, 1, false}, {1, 4, 5, 1, false}}},
		{"neither steps", arrays{[]int32{0, 1}, []int32{3, 3}, []int32{4, 4}}, []emitRun{{0, 3, 4, 1, false}, {1, 3, 4, 1, false}}},
		{"column gap", arrays{[]int32{0, 2}, []int32{0, 1}, []int32{0, 0}}, []emitRun{{0, 0, 0, 1, false}, {2, 1, 0, 1, false}}},
		{"step change", arrays{[]int32{0, 1, 2}, []int32{0, 1, 1}, []int32{0, 0, 1}}, []emitRun{{0, 0, 0, 2, false}, {2, 1, 1, 1, false}}},
		{"step of 2", arrays{[]int32{0, 1}, []int32{0, 2}, []int32{0, 0}}, []emitRun{{0, 0, 0, 1, false}, {1, 2, 0, 1, false}}},
		{"backward step", arrays{[]int32{0, 1}, []int32{1, 0}, []int32{0, 0}}, []emitRun{{0, 1, 0, 1, false}, {1, 0, 0, 1, false}}},
		{"column repeated", arrays{[]int32{0, 0}, []int32{0, 1}, []int32{0, 0}}, []emitRun{{0, 0, 0, 1, false}, {0, 1, 0, 1, false}}},
	}
	group := func(in arrays, coef float64, pre1 int32) *emitGroup {
		n := len(in.col)
		g := &emitGroup{w: 2, coef: make([]float64, n), prog: slices.Concat(in.col, in.sfx, in.pre, make([]int32, n))}
		for i := range g.coef {
			g.coef[i] = 1
		}
		g.coef[n-1] = coef
		g.prog[len(g.prog)-1] = pre1
		return g
	}
	for _, c := range cases {
		if got := group(c.in, 1, 0).unitRuns(); !reflect.DeepEqual(got, c.runs) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.runs)
		}
		if got := group(c.in, 2, 0).unitRuns(); got != nil {
			t.Errorf("%s, a coefficient 2: runs %v, want none", c.name, got)
		}
		if got := group(c.in, 1, 3).unitRuns(); got != nil {
			t.Errorf("%s, a second prefix register 3: runs %v, want none", c.name, got)
		}
		g := group(c.in, 1, 0)
		g.carriedInputs, g.prog = []int{0}, slices.Concat(g.prog, make([]int32, len(g.coef)))
		if got := g.unitRuns(); got != nil {
			t.Errorf("%s, a carried view: runs %v, want none", c.name, got)
		}
	}
}
