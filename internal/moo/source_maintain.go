package moo

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/ivm"
)

// GenerateMaintenanceSource emits self-contained, compilable Go source
// covering both evaluation and maintenance of the plan: the computeGroup
// functions of GenerateSource plus, per join-tree relation, the specialized
// maintenance kernels the runtime engine compiles on demand (kernel.go).
// For every relation the ivm schedule is resolved at generation time and each step becomes a maintainGroup function — the
// step's group scan restricted to its dirty views — stitched together by a
// maintain_<Rel> driver that runs the steps in dependency order, combines the
// insert and delete scans into signed delta views (deletes are
// negative-weight inserts), and folds the deltas into the cached views.
//
// Unchanged-node steps are emitted as full rescans: whether a semi-join
// row-id restriction pays off depends on the delta's key spread, a
// data-dependent choice the source kernels leave to the runtime engine.
// The plan should be built with TrackCounts so deletions carry the hidden
// tuple-count column; keys whose tuples were all deleted remain as explicit
// zero rows in the generated merge (the runtime compacts them away).
func GenerateMaintenanceSource(plan *core.Plan, w io.Writer) error {
	g := &sourceGen{plan: plan, w: &strings.Builder{}, udfs: map[string]bool{}}
	var parts []string
	for _, grp := range plan.Groups {
		fn, err := g.group(grp, fmt.Sprintf("computeGroup%d", grp.ID))
		if err != nil {
			return err
		}
		parts = append(parts, fn)
	}
	for nid := range plan.Tree.Nodes {
		fns, err := g.maintenance(nid)
		if err != nil {
			return err
		}
		parts = append(parts, fns...)
	}
	if _, err := io.WriteString(w, g.prelude(true)); err != nil {
		return err
	}
	for _, fn := range parts {
		if _, err := io.WriteString(w, fn); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, g.epilogue())
	return err
}

// maintStep pairs one ivm schedule step with its compiled sub-group and the
// name of the emitted kernel function.
type maintStep struct {
	st ivm.Step
	gp *groupPlan
	fn string
}

// maintenance emits the maintenance kernels and driver for deltas against
// the relation at join-tree node nid. For hypertree bag nodes the driver
// maintains deltas against the materialized bag relation (the runtime syncs
// bag members into it before maintenance).
func (g *sourceGen) maintenance(nid int) ([]string, error) {
	sched, err := ivm.Analyze(g.plan, nid)
	if err != nil {
		return nil, err
	}
	rel := sanitizeIdent(g.plan.Tree.Nodes[nid].Rel.Name)
	var out []string
	steps := make([]maintStep, 0, len(sched.Steps))
	for _, st := range sched.Steps {
		sub := &core.Group{ID: st.Group, Node: st.Node, Views: st.Dirty}
		name := fmt.Sprintf("maintainGroup%d_%s", st.Group, rel)
		fn, err := g.group(sub, name)
		if err != nil {
			return nil, err
		}
		gp, err := compileGroup(g.plan, sub, true)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
		steps = append(steps, maintStep{st: st, gp: gp, fn: name})
	}
	driver, err := g.maintenanceDriver(rel, sched, steps)
	if err != nil {
		return nil, err
	}
	return append(out, driver), nil
}

// maintenanceDriver emits maintain_<Rel>: the dependency-ordered execution of
// the relation's maintenance kernels plus the final signed-delta merge.
func (g *sourceGen) maintenanceDriver(rel string, sched *ivm.Schedule, steps []maintStep) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "\n// maintain_%s maintains every view dirtied by a delta against %s:\n", rel, rel)
	b.WriteString(`// ins holds the inserted tuples, del the deleted ones (either may be nil).
// views maps view IDs to the cached results of the computeGroup functions
// and is updated in place with the maintained versions. rels holds the base
// relations for unchanged-node rescans. Deletes are handled as
// negative-weight inserts: each changed-node kernel scans the insert and
// delete blocks separately and the two outputs combine into one signed
// delta view.
`)
	fmt.Fprintf(&b, "func maintain_%s(ins, del *Relation, rels map[string]*Relation, views map[int]*View) {\n", rel)
	b.WriteString("\tdeltas := map[int]*View{}\n")
	usedDelta, usedRels := false, false
	for _, ms := range steps {
		st, gp := ms.st, ms.gp
		orderNames := make([]string, len(gp.order))
		for d, a := range gp.order {
			orderNames[d] = fmt.Sprintf("%q", g.attrName(a))
		}
		orderLit := "[]string{" + strings.Join(orderNames, ", ") + "}"
		deltaIn := map[int]bool{}
		for _, in := range st.DeltaInputs {
			deltaIn[in] = true
		}
		var args []string
		for _, in := range gp.inputs {
			if deltaIn[in.id] {
				args = append(args, fmt.Sprintf("deltas[%d]", in.id))
			} else {
				args = append(args, fmt.Sprintf("views[%d]", in.id))
			}
		}
		if st.AtDelta {
			usedDelta = true
			fmt.Fprintf(&b, "\t// Group %d at the changed node: rescan only the delta tuples.\n", st.Group)
			var insVars, delVars []string
			for _, vid := range st.Dirty {
				insVars = append(insVars, fmt.Sprintf("ins%d", vid))
				delVars = append(delVars, fmt.Sprintf("del%d", vid))
			}
			fmt.Fprintf(&b, "\tvar %s *View\n", strings.Join(append(append([]string{}, insVars...), delVars...), ", "))
			fmt.Fprintf(&b, "\tif ins != nil {\n\t\t%s = %s(sortRelBy(ins, %s)%s)\n\t}\n",
				strings.Join(insVars, ", "), ms.fn, orderLit, prefixJoin(", ", args))
			fmt.Fprintf(&b, "\tif del != nil {\n\t\t%s = %s(sortRelBy(del, %s)%s)\n\t}\n",
				strings.Join(delVars, ", "), ms.fn, orderLit, prefixJoin(", ", args))
			for i, vid := range st.Dirty {
				v := g.plan.Views[vid]
				fmt.Fprintf(&b, "\tdeltas[%d] = combineDelta(%s, %s, %d, %d, %s)\n",
					vid, insVars[i], delVars[i], len(v.GroupBy), len(v.Cols), intsLit(g.skeyPos(v)))
			}
		} else {
			usedRels = true
			nodeRel := g.plan.Tree.Nodes[st.Node].Rel.Name
			fmt.Fprintf(&b, "\t// Group %d at %s: full rescan reading dirty inputs from their\n", st.Group, nodeRel)
			b.WriteString("\t// deltas (the runtime narrows this scan to a semi-join row-id batch\n\t// when the delta's key spread makes that profitable).\n")
			lhs := make([]string, len(st.Dirty))
			for i, vid := range st.Dirty {
				lhs[i] = fmt.Sprintf("deltas[%d]", vid)
			}
			fmt.Fprintf(&b, "\t%s = %s(sortRelBy(rels[%q], %s)%s)\n",
				strings.Join(lhs, ", "), ms.fn, nodeRel, orderLit, prefixJoin(", ", args))
		}
	}
	if !usedDelta {
		b.WriteString("\t_, _ = ins, del\n")
	}
	if !usedRels {
		b.WriteString("\t_ = rels\n")
	}
	b.WriteString("\t// Fold the signed deltas into the cache, re-finalizing each view.\n")
	for _, vid := range sched.DirtyViews {
		fmt.Fprintf(&b, "\tviews[%d] = mergeDelta(views[%d], deltas[%d], %s)\n",
			vid, vid, vid, intsLit(g.skeyPos(g.plan.Views[vid])))
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// sanitizeIdent makes a relation or attribute name usable as a Go identifier
// fragment.
func sanitizeIdent(name string) string {
	clean := make([]rune, 0, len(name))
	for _, r := range name {
		if r == ' ' || r == '-' || r == '.' {
			r = '_'
		}
		clean = append(clean, r)
	}
	return string(clean)
}

// maintenancePrelude holds the runtime helpers shared by all emitted
// maintenance drivers: stable re-sorting of delta blocks, signed delta
// combination, and the cache merge.
const maintenancePrelude = `
// sortRelBy returns a copy of rel with every column stably reordered by the
// given int key columns — the scan-order contract the group kernels assume.
// The stable sort keeps row visit order (and so float accumulation order)
// deterministic.
func sortRelBy(rel *Relation, keys []string) *Relation {
	perm := make([]int, rel.N)
	for i := range perm {
		perm[i] = i
	}
	cols := make([][]int64, len(keys))
	for i, k := range keys {
		cols[i] = rel.Ints[k]
	}
	slices.SortStableFunc(perm, func(x, y int) int {
		for _, c := range cols {
			if a, b := c[x], c[y]; a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	out := &Relation{N: rel.N, Ints: map[string][]int64{}, Flts: map[string][]float64{}}
	for name, c := range rel.Ints {
		nc := make([]int64, len(c))
		for i, p := range perm {
			nc[i] = c[p]
		}
		out.Ints[name] = nc
	}
	for name, c := range rel.Flts {
		nc := make([]float64, len(c))
		for i, p := range perm {
			nc[i] = c[p]
		}
		out.Flts[name] = nc
	}
	return out
}

// addView folds src's entries into dst, scaling every aggregate by sign.
func addView(dst, src *View, sign float64) {
	if src == nil || src.Stride == 0 {
		return
	}
	key := make([]int64, len(src.Keys))
	for i := 0; i < len(src.Vals)/src.Stride; i++ {
		for c := range src.Keys {
			key[c] = src.Keys[c][i]
		}
		r := dst.row(key...)
		for j := 0; j < dst.Stride; j++ {
			dst.Vals[r*dst.Stride+j] += sign * src.Vals[i*src.Stride+j]
		}
	}
}

// combineDelta merges the insert- and delete-scan outputs of one dirty view
// into a single signed delta view (deletes contribute with weight -1) and
// finalizes its consumer-key index so downstream kernels can bind into it.
func combineDelta(ins, del *View, keyCols, stride int, skeyPos []int) *View {
	out := newView(keyCols, stride)
	addView(out, ins, 1)
	addView(out, del, -1)
	buildIndex(out, skeyPos)
	return out
}

// mergeDelta folds a signed delta into a cached view, returning the
// re-finalized replacement (the runtime engine swaps maintained views the
// same way). Keys whose tuples were all deleted remain as zero rows.
func mergeDelta(base, delta *View, skeyPos []int) *View {
	out := newView(len(base.Keys), base.Stride)
	addView(out, base, 1)
	addView(out, delta, 1)
	buildIndex(out, skeyPos)
	return out
}
`
