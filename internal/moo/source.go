package moo

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/query"
)

// GenerateSource emits self-contained, compilable Go source implementing the
// plan's multi-output view groups as specialized nested loops — the Go
// analogue of the paper's Compilation layer (its generated C++, Figure 4).
// Every factor is inlined as a Go expression, aggregates live in fixed-size
// slices accessed sequentially, running sums r_d and partial products follow
// the aggregate registration, and custom UDFs become stub functions (the
// paper's dynamically-linked function file).
func GenerateSource(plan *core.Plan, w io.Writer) error {
	g := &sourceGen{plan: plan, w: &strings.Builder{}, udfs: map[string]bool{}}
	var groups []string
	for _, grp := range plan.Groups {
		fn, err := g.group(grp, fmt.Sprintf("computeGroup%d", grp.ID))
		if err != nil {
			return err
		}
		groups = append(groups, fn)
	}
	if _, err := io.WriteString(w, g.prelude(false)); err != nil {
		return err
	}
	for _, fn := range groups {
		if _, err := io.WriteString(w, fn); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, g.epilogue())
	return err
}

type sourceGen struct {
	plan *core.Plan
	w    *strings.Builder
	udfs map[string]bool
}

func (g *sourceGen) prelude(maintain bool) string {
	var b strings.Builder
	b.WriteString(`// Code generated by lmfao-codegen; specialized multi-output plans. DO NOT EDIT.
//
// One function per view group: a single trie-style scan of the group's
// relation computes every view in the group (paper §3.5, Figure 4).
package main

import (
	"math"
	"slices"
)

var _ = math.Log

// Relation is columnar input data sorted by the scan order.
type Relation struct {
	N     int
	Ints  map[string][]int64
	Flts  map[string][]float64
}

// View is a materialized view: key columns, row-major aggregates, and an
// index from packed consumer keys to entry ranges.
type View struct {
	Keys   [][]int64
	Vals   []float64
	Stride int
	Index  map[string][2]int
	rows   map[string]int
}

func newView(keyCols, stride int) *View {
	return &View{Keys: make([][]int64, keyCols), Stride: stride,
		Index: map[string][2]int{}, rows: map[string]int{}}
}

func (v *View) row(key ...int64) int {
	k := pack(key...)
	if r, ok := v.rows[k]; ok {
		return r
	}
	r := len(v.Vals) / v.Stride
	v.rows[k] = r
	for c := range key {
		v.Keys[c] = append(v.Keys[c], key[c])
	}
	v.Vals = append(v.Vals, make([]float64, v.Stride)...)
	return r
}

func pack(vals ...int64) string {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		u := uint64(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

func rangeEnd(col []int64, lo, hi int) int {
	v := col[lo]
	for lo < hi && col[lo] == v {
		lo++
	}
	return lo
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var _ = b2f

// buildIndex sorts the view's entries by (consumer key, extras) and builds
// the consumer-key range index, mirroring the engine's view finalization.
func buildIndex(v *View, skeyPos []int) {
	nRows := 0
	if v.Stride > 0 {
		nRows = len(v.Vals) / v.Stride
	}
	perm := make([]int, nRows)
	for i := range perm {
		perm[i] = i
	}
	cmpPos := append(append([]int{}, skeyPos...), otherPos(len(v.Keys), skeyPos)...)
	slices.SortStableFunc(perm, func(x, y int) int {
		for _, c := range cmpPos {
			if a, b := v.Keys[c][x], v.Keys[c][y]; a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	keys := make([][]int64, len(v.Keys))
	for c := range v.Keys {
		keys[c] = make([]int64, nRows)
		for i, p := range perm {
			keys[c][i] = v.Keys[c][p]
		}
	}
	vals := make([]float64, len(v.Vals))
	for i, p := range perm {
		copy(vals[i*v.Stride:(i+1)*v.Stride], v.Vals[p*v.Stride:(p+1)*v.Stride])
	}
	v.Keys, v.Vals = keys, vals
	start := 0
	skey := func(i int) string {
		parts := make([]int64, len(skeyPos))
		for c, p := range skeyPos {
			parts[c] = v.Keys[p][i]
		}
		return pack(parts...)
	}
	for i := 1; i <= nRows; i++ {
		if i < nRows && skey(i-1) == skey(i) {
			continue
		}
		v.Index[skey(start)] = [2]int{start, i}
		start = i
	}
}

func otherPos(n int, skeyPos []int) []int {
	in := map[int]bool{}
	for _, p := range skeyPos {
		in[p] = true
	}
	var out []int
	for p := 0; p < n; p++ {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}
`)
	if maintain {
		b.WriteString(maintenancePrelude)
	}
	return b.String()
}

func (g *sourceGen) epilogue() string {
	var b strings.Builder
	names := make([]string, 0, len(g.udfs))
	for n := range g.udfs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "\n// udf_%s is a user-defined aggregate function; supplied at link time\n"+
			"// (the paper's dynamically compiled function file).\n"+
			"func udf_%s(x float64) float64 { panic(\"udf %s not linked\") }\n", n, n, n)
	}
	b.WriteString("\nfunc main() {}\n")
	return b.String()
}

// attrName renders an attribute identifier usable in generated code.
func (g *sourceGen) attrName(a data.AttrID) string {
	name := g.plan.Tree.DB.Attribute(a).Name
	clean := make([]rune, 0, len(name))
	for _, r := range name {
		if r == ' ' || r == '-' || r == '.' {
			r = '_'
		}
		clean = append(clean, r)
	}
	return string(clean)
}

// factorExpr inlines one factor application over the expression x.
func (g *sourceGen) factorExpr(f query.Factor, x string) string {
	switch f.Kind {
	case query.Const:
		return fmt.Sprintf("%g", f.Value)
	case query.Ident:
		return x
	case query.Pow:
		parts := make([]string, f.Exp)
		for i := range parts {
			parts[i] = x
		}
		return "(" + strings.Join(parts, " * ") + ")"
	case query.Indicator:
		return fmt.Sprintf("b2f(%s %s %g)", x, opGo(f.Op), f.Threshold)
	case query.InSet:
		conds := make([]string, len(f.Set))
		for i, s := range f.Set {
			conds[i] = fmt.Sprintf("int64(%s) == %d", x, s)
		}
		return "b2f(" + strings.Join(conds, " || ") + ")"
	case query.Log:
		return fmt.Sprintf("math.Log(%s)", x)
	case query.Custom:
		g.udfs[f.Name] = true
		return fmt.Sprintf("udf_%s(%s)", f.Name, x)
	}
	return "1"
}

func opGo(op query.CmpOp) string {
	switch op {
	case query.LE:
		return "<="
	case query.LT:
		return "<"
	case query.GE:
		return ">="
	case query.GT:
		return ">"
	case query.EQ:
		return "=="
	default:
		return "!="
	}
}

// group emits the function computing one view group under the given name.
func (g *sourceGen) group(grp *core.Group, name string) (string, error) {
	gp, err := compileGroup(g.plan, grp, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	node := gp.node
	orderNames := make([]string, gp.L)
	for d, a := range gp.order {
		orderNames[d] = g.attrName(a)
	}

	viewNames := make([]string, len(gp.views))
	fmt.Fprintf(&b, "\n// %s scans %s ordered by (%s), computing:\n",
		name, node.Rel.Name, strings.Join(orderNames, ", "))
	for i, v := range gp.views {
		if v.IsOutput() {
			fmt.Fprintf(&b, "//   out%d: query %q (%d aggregates)\n",
				v.ID, g.plan.Queries[v.Query].Name, len(v.Cols))
		} else {
			fmt.Fprintf(&b, "//   out%d: view V_%s→%s (%d aggregates)\n",
				v.ID, node.Rel.Name, g.plan.Tree.Nodes[v.To].Rel.Name, len(v.Cols))
		}
		viewNames[i] = fmt.Sprintf("out%d", v.ID)
	}
	var params []string
	for _, in := range gp.inputs {
		params = append(params, fmt.Sprintf("vw%d *View", in.id))
	}
	fmt.Fprintf(&b, "func %s(rel *Relation%s) (%s *View) {\n",
		name, prefixJoin(", ", params), strings.Join(viewNames, ", "))
	for i, v := range gp.views {
		fmt.Fprintf(&b, "\t%s = newView(%d, %d)\n", viewNames[i], len(v.GroupBy), len(v.Cols))
		if v.IsOutput() && len(v.GroupBy) == 0 {
			fmt.Fprintf(&b, "\t%s.row() // scalar outputs always deliver one row\n", viewNames[i])
		}
	}
	// Column bindings.
	for d, a := range gp.order {
		fmt.Fprintf(&b, "\tcol%d := rel.Ints[%q]\n", d, g.attrName(a))
	}
	leafAttrs := map[string]bool{}
	for _, ls := range gp.leafSlots {
		for _, f := range ls.factors {
			n := g.attrName(f.Attr)
			if !leafAttrs[n] {
				leafAttrs[n] = true
				if g.plan.Tree.DB.Attribute(f.Attr).Kind.Discrete() {
					fmt.Fprintf(&b, "\tleaf_%s := rel.Ints[%q]\n", n, n)
				} else {
					fmt.Fprintf(&b, "\tleaf_%s := rel.Flts[%q]\n", n, n)
				}
			}
		}
	}
	// Running-sum arrays.
	for d := 0; d <= gp.L; d++ {
		fmt.Fprintf(&b, "\tR%d := make([]float64, %d)\n\tP%d := make([]bool, %d)\n",
			d, gp.numSuffix(d), d, gp.numSuffix(d))
	}
	// Leaf presence: reached means rows exist.
	fmt.Fprintf(&b, "\tfor i := range P%d {\n\t\tP%d[i] = true\n\t}\n", gp.L, gp.L)
	// Global binds and slots.
	for _, ii := range gp.globalBind {
		fmt.Fprintf(&b, "\tg%dr, g%dok := vw%d.Index[pack()]\n\t_ = g%dr\n",
			ii, ii, gp.inputs[ii].id, ii)
	}
	for si, s := range gp.globalSlots {
		g.emitSlotVal(&b, "\t", gp, fmt.Sprintf("gs%d", si), fmt.Sprintf("gso%d", si), s, -1)
	}

	g.emitScanLevel(&b, gp, 0, "0", "rel.N", "\t")

	// Scalar emissions after the scan.
	for _, ei := range gp.emitsScalar {
		g.emitEmission(&b, gp, ei, "\t")
	}
	for i, v := range gp.views {
		if v.IsOutput() {
			continue
		}
		fmt.Fprintf(&b, "\tbuildIndex(%s, %s)\n", viewNames[i], intsLit(g.skeyPos(v)))
	}
	b.WriteString("\treturn\n}\n")
	return b.String(), nil
}

// skeyPos returns the positions of the view's consumer-key attributes in its
// group-by — the key prefix its target node binds on.
func (g *sourceGen) skeyPos(v *core.View) []int {
	if v.IsOutput() {
		return nil
	}
	target := g.plan.Tree.Nodes[v.To]
	var pos []int
	for p, a := range v.GroupBy {
		if target.HasAttr(a) {
			pos = append(pos, p)
		}
	}
	return pos
}

// intsLit renders an []int literal.
func intsLit(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return "[]int{" + strings.Join(parts, ", ") + "}"
}

// emitScanLevel generates the loop at one trie depth.
func (g *sourceGen) emitScanLevel(b *strings.Builder, gp *groupPlan, d int, lo, hi, ind string) {
	if d == gp.L {
		g.emitLeaf(b, gp, lo, hi, ind)
		return
	}
	fmt.Fprintf(b, "%sfor i := range R%d {\n%s\tR%d[i] = 0\n%s\tP%d[i] = false\n%s}\n",
		ind, d, ind, d, ind, d, ind)
	fmt.Fprintf(b, "%sfor lo%d := %s; lo%d < %s; {\n", ind, d, lo, d, hi)
	in := ind + "\t"
	fmt.Fprintf(b, "%shi%d := rangeEnd(col%d, lo%d, %s)\n", in, d, d, d, hi)
	fmt.Fprintf(b, "%sv%d := col%d[lo%d]\n", in, d, d, d)
	// Bind inputs at this depth.
	for _, ii := range gp.bindAt[d] {
		keyParts := make([]string, len(gp.inputs[ii].keyDepths))
		for i, kd := range gp.inputs[ii].keyDepths {
			keyParts[i] = fmt.Sprintf("v%d", kd)
		}
		fmt.Fprintf(b, "%se%dr, e%dok := vw%d.Index[pack(%s)]\n%s_ = e%dr\n",
			in, ii, ii, gp.inputs[ii].id, strings.Join(keyParts, ", "), in, ii)
	}
	// Depth slots.
	for si, s := range gp.depthSlots[d] {
		g.emitSlotVal(b, in, gp, fmt.Sprintf("s%d_%d", d, si), fmt.Sprintf("so%d_%d", d, si), s, d)
	}
	g.emitScanLevel(b, gp, d+1, fmt.Sprintf("lo%d", d), fmt.Sprintf("hi%d", d), in)
	// Emissions registered at this depth.
	for _, ei := range gp.emitsAt[d] {
		g.emitEmission(b, gp, ei, in)
	}
	// Running-sum accumulation.
	for sid, sp := range gp.suffixes[d] {
		cond := fmt.Sprintf("P%d[%d]", d+1, sp.next)
		prod := fmt.Sprintf("R%d[%d]", d+1, sp.next)
		for _, s := range sp.slots {
			cond += fmt.Sprintf(" && so%d_%d", d, s)
			prod += fmt.Sprintf(" * s%d_%d", d, s)
		}
		fmt.Fprintf(b, "%sif %s {\n%s\tR%d[%d] += %s\n%s\tP%d[%d] = true\n%s}\n",
			in, cond, in, d, sid, prod, in, d, sid, in)
	}
	fmt.Fprintf(b, "%slo%d = hi%d\n", in, d, d)
	fmt.Fprintf(b, "%s}\n", ind)
}

// emitLeaf generates the row-level loops filling R_L.
func (g *sourceGen) emitLeaf(b *strings.Builder, gp *groupPlan, lo, hi, ind string) {
	for li, ls := range gp.leafSlots {
		if len(ls.factors) == 0 {
			fmt.Fprintf(b, "%sR%d[%d] = float64(%s - %s) // row count\n", ind, gp.L, li, hi, lo)
			continue
		}
		fmt.Fprintf(b, "%sR%d[%d] = 0\n", ind, gp.L, li)
		fmt.Fprintf(b, "%sfor r := %s; r < %s; r++ {\n", ind, lo, hi)
		terms := make([]string, len(ls.factors))
		for i, f := range ls.factors {
			n := g.attrName(f.Attr)
			x := fmt.Sprintf("leaf_%s[r]", n)
			if g.plan.Tree.DB.Attribute(f.Attr).Kind.Discrete() {
				x = "float64(" + x + ")"
			}
			terms[i] = g.factorExpr(f, x)
		}
		fmt.Fprintf(b, "%s\tR%d[%d] += %s\n%s}\n", ind, gp.L, li, strings.Join(terms, " * "), ind)
	}
}

// emitSlotVal generates one slot value + presence pair.
func (g *sourceGen) emitSlotVal(b *strings.Builder, ind string, gp *groupPlan, vn, on string, s slotSpec, d int) {
	switch s.kind {
	case localSlot:
		x := fmt.Sprintf("float64(v%d)", d)
		terms := make([]string, len(s.factors))
		for i, f := range s.factors {
			terms[i] = g.factorExpr(f, x)
		}
		fmt.Fprintf(b, "%s%s, %s := %s, true\n%s_, _ = %s, %s\n",
			ind, vn, on, strings.Join(terms, " * "), ind, vn, on)
	case lookupSlot:
		okName := fmt.Sprintf("e%dok", s.input)
		rName := fmt.Sprintf("e%dr", s.input)
		if gp.inputs[s.input].bindDepth == -1 {
			okName = fmt.Sprintf("g%dok", s.input)
			rName = fmt.Sprintf("g%dr", s.input)
		}
		fmt.Fprintf(b, "%s%s, %s := 0.0, %s\n", ind, vn, on, okName)
		fmt.Fprintf(b, "%sif %s {\n%s\t%s = vw%d.Vals[%s[0]*%d+%d]\n%s}\n",
			ind, on, ind, vn, gp.inputs[s.input].id, rName,
			len(g.plan.Views[gp.inputs[s.input].id].Cols), s.col, ind)
		fmt.Fprintf(b, "%s_, _ = %s, %s\n", ind, vn, on)
	}
}

// emitEmission generates the writes of one emission group: the output row is
// resolved once per context and the group's aggregate columns are written
// sequentially (the paper's contiguous aggregate-array organization).
func (g *sourceGen) emitEmission(b *strings.Builder, gp *groupPlan, gi int, ind string) {
	eg := &gp.emitGroups[gi]
	v := gp.views[eg.view]
	out := fmt.Sprintf("out%d", v.ID)
	in := ind

	// Carried-view bind guards and nested entry loops.
	var guards []string
	for _, input := range eg.carriedInputs {
		okName := fmt.Sprintf("e%dok", input)
		if gp.inputs[input].bindDepth == -1 {
			okName = fmt.Sprintf("g%dok", input)
		}
		guards = append(guards, okName)
	}
	closeBraces := 0
	if len(guards) > 0 {
		fmt.Fprintf(b, "%sif %s {\n", in, strings.Join(guards, " && "))
		in += "\t"
		closeBraces++
	}
	keyExpr := make([]string, len(eg.keySrc))
	for i, ks := range eg.keySrc {
		if ks.carried == -1 {
			keyExpr[i] = fmt.Sprintf("v%d", ks.depth)
		}
	}
	for ci, input := range eg.carriedInputs {
		rName := fmt.Sprintf("e%dr", input)
		if gp.inputs[input].bindDepth == -1 {
			rName = fmt.Sprintf("g%dr", input)
		}
		fmt.Fprintf(b, "%sfor r%d := %s[0]; r%d < %s[1]; r%d++ {\n",
			in, ci, rName, ci, rName, ci)
		in += "\t"
		closeBraces++
		for i, ks := range eg.keySrc {
			if ks.carried == ci {
				keyExpr[i] = fmt.Sprintf("vw%d.Keys[%d][r%d]",
					gp.inputs[input].id, ks.extraCol, ci)
			}
		}
	}
	rowVar := fmt.Sprintf("row%d", gi)
	fmt.Fprintf(b, "%s%s := %s.row(%s)\n", in, rowVar, out, strings.Join(keyExpr, ", "))
	for _, e := range gp.emits {
		if e.group != gi {
			continue
		}
		cond := fmt.Sprintf("P%d[%d]", eg.regDepth+1, e.suffix)
		val := fmt.Sprintf("%g * R%d[%d]", e.coef, eg.regDepth+1, e.suffix)
		for _, pr := range e.prefix {
			if pr.depth == -1 {
				cond += fmt.Sprintf(" && gso%d", pr.idx)
				val += fmt.Sprintf(" * gs%d", pr.idx)
			} else {
				cond += fmt.Sprintf(" && so%d_%d", pr.depth, pr.idx)
				val += fmt.Sprintf(" * s%d_%d", pr.depth, pr.idx)
			}
		}
		for cj, input := range eg.carriedInputs {
			val += fmt.Sprintf(" * vw%d.Vals[r%d*%d+%d]",
				gp.inputs[input].id, cj,
				len(g.plan.Views[gp.inputs[input].id].Cols), e.carried[cj].col)
		}
		fmt.Fprintf(b, "%sif %s {\n%s\t%s.Vals[%s*%d+%d] += %s\n%s}\n",
			in, cond, in, out, rowVar, len(v.Cols), e.col, val, in)
	}
	for ; closeBraces > 0; closeBraces-- {
		in = in[:len(in)-1]
		fmt.Fprintf(b, "%s}\n", in)
	}
}

func prefixJoin(sep string, parts []string) string {
	if len(parts) == 0 {
		return ""
	}
	return sep + strings.Join(parts, sep)
}
