package moo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/jointree"
	"repro/internal/query"
)

// The multi-output plan for one view group (paper §3.5). Compilation follows
// the paper's three steps: (1) take the join-attribute order of the group's
// relation — the logical plan's cost-based order of the node
// (core.Plan.AttrOrder), restricted to the group's attributes; (2) register
// incoming views at the lowest depth where their consumer key is bound and
// outgoing views at the depth of their deepest group-by attribute; (3)
// register every product aggregate as per-depth partial products. Partial
// products shared across aggregates become interned "slots"; the sums over
// deeper depths become interned suffix chains — the paper's running sums
// r_d; the products above the registration depth are multiplied at emission
// time — the paper's intermediate aggregates a_d.

type slotKind uint8

const (
	localSlot  slotKind = iota // product of factors over the depth's attribute
	lookupSlot                 // aggregate fetched from a bound incoming view
)

type slotSpec struct {
	kind slotKind
	// localSlot:
	factors []query.Factor
	fn      func(float64) float64 // composed product, non-nil in compiled mode
	// lookupSlot:
	input int // index into groupPlan.inputs
	col   int // aggregate column in the input view
}

// slotRef addresses a slot: depth == -1 refers to the global slots (inputs
// whose consumer key is empty, bound once per scan).
type slotRef struct {
	depth int
	idx   int
}

// lookupRun is n lookup slots in consecutive registers reg… that read
// consecutive aggregate columns col… of one input's bound row, so one copy
// fills them.
type lookupRun struct {
	reg, n, input, col int
}

type leafSlot struct {
	factors []query.Factor
	cols    []data.Column // resolved columns, parallel to factors
	// rowFn is the composed per-row product reading columns directly
	// (compiled mode; rebuilt by resolveLeafCols).
	rowFn    func(r int) float64
	compiled bool
}

// suffixSpec is one node of a running-sum chain at some depth d:
// R_d[this] += Π slots × R_{d+1}[next]. After compilation the per-depth
// lists are split by arity into chainTabs for the scan.
type suffixSpec struct {
	slots []int
	next  int
}

// chainTab is one arity class of a depth's running-sum chains as parallel
// arrays: chain i adds reg[regs[i]] × … × reg[regs[(w-1)n+i]] ×
// R_{d+1}[next[i]] into R_d[off+i], n = len(next). Arities 0, 1 and 2 get
// unrolled loops; longer chains share a class padded to the widest with
// register 0 (the constant 1), so every product keeps its factor order.
type chainTab struct {
	w, off int
	next   []int32
	regs   []int32 // w columns of n registers
}

// buildChains splits every depth's running-sum chains into arity classes and
// renumbers each depth's running sums class by class, so a class writes one
// contiguous run of R_d. It returns the renumbering, sid[d][logical id]; the
// logical lists keep their ids, and buildEmitGroups maps them through sid.
func (gp *groupPlan) buildChains() (sid [][]int32) {
	sid = make([][]int32, gp.L+1)
	sid[gp.L] = make([]int32, len(gp.leafSlots))
	for i := range sid[gp.L] {
		sid[gp.L][i] = int32(i)
	}
	gp.chains = make([][]chainTab, gp.L)
	for d := gp.L - 1; d >= 0; d-- {
		sfx := gp.suffixes[d]
		sid[d] = make([]int32, len(sfx))
		var class [4][]int
		for s, sp := range sfx {
			k := min(len(sp.slots), 3)
			class[k] = append(class[k], s)
		}
		off := 0
		for k, members := range class {
			if len(members) == 0 {
				continue
			}
			n := len(members)
			t := chainTab{w: k, off: off, next: make([]int32, n)}
			for _, s := range members {
				t.w = max(t.w, len(sfx[s].slots))
			}
			t.regs = make([]int32, t.w*n) // zero: padding with register 0
			for i, s := range members {
				sid[d][s] = int32(off + i)
				t.next[i] = sid[d+1][sfx[s].next]
				for j, slot := range sfx[s].slots {
					t.regs[j*n+i] = gp.reg(slotRef{depth: d, idx: slot})
				}
			}
			gp.chains[d] = append(gp.chains[d], t)
			off += n
		}
	}
	return sid
}

type carriedRef struct {
	input int // index into groupPlan.inputs (a view with extras)
	col   int // aggregate column supplying the value factor
}

// keySource says where one output group-by value comes from: an order depth
// (carried == -1) or a carried view entry column.
type keySource struct {
	carried  int // index into emitSpec.carried, or -1
	depth    int // order depth when carried == -1
	extraCol int // key-column index in the carried view
}

type emitSpec struct {
	view     int // index into groupPlan.views
	col      int
	coef     float64
	regDepth int
	prefix   []slotRef
	carried  []carriedRef
	suffix   int // suffix id at depth regDepth+1 (leaf id when regDepth+1 == L)
	keySrc   []keySource
	group    int // index into groupPlan.emitGroups
}

// emitGroup batches the emissions of one output view that share a
// registration depth, key sources and carried views: the output row is
// resolved once per context and every aggregate column is written
// sequentially — the paper's contiguous aggregate-array organization.
type emitGroup struct {
	regDepth, w, view int
	// The emission program, parallel arrays over n = len(coef) entries (see
	// arrays): entry i adds coef[i] × R_{regDepth+1}[sfx[i]] × reg[pre[i]] ×
	// … × reg[pre[(w-1)n+i]] × carried input j's value column ccol[j*n+i]
	// into column col[i]; prefixes are padded with register 0 to w ≥ 2. A
	// plan's programs and coefficients are carved from one allocation each,
	// since every Run compiles every group.
	prog []int32
	coef []float64

	// runs, when non-nil, is the check-free walk of a group without carried
	// views whose coefficients are all 1 and whose second prefix column is
	// register 0 (emitRuns): the program cut into runs over consecutive
	// columns.
	runs []emitRun

	// carriedInputs lists the carried views (by input index) whose entries
	// are enumerated.
	carriedInputs []int
	keySrc        []keySource
}

// arrays splits the group's program into its parallel arrays.
func (g *emitGroup) arrays() (col, sfx, pre, ccol []int32) {
	n, w := len(g.coef), g.w
	return g.prog[:n], g.prog[n : 2*n], g.prog[2*n : (2+w)*n], g.prog[(2+w)*n:]
}

type inputSpec struct {
	id int // view ID in the logical plan
	// keyAttrs is the consumer key (group-by ∩ node schema, ID order) and
	// extraAttrs the carried remainder — both derived logically so plans
	// compile without materialized data.
	keyAttrs   []data.AttrID
	extraAttrs []data.AttrID
	keyDepths  []int // order depth per consumer-key attribute
	bindDepth  int   // max(keyDepths); -1 when the consumer key is empty
	carried    bool  // has extras
}

// groupPlan is the compiled multi-output program of one view group. Its
// logical lists (slot specs, suffix chains, emitSpecs) are built first and
// lowered once; the scan runs their flat form, which addresses every slot by
// its register in an execution context's register file: register 0 holds
// the constant 1, then come the global slots, then each depth's (regBase).
type groupPlan struct {
	group *core.Group
	node  *jointree.Node
	rel   *data.Relation // sorted by order
	order []data.AttrID
	L     int

	inputs     []inputSpec
	globalBind []int // inputs with bindDepth == -1

	globalSlots []slotSpec
	depthSlots  [][]slotSpec // [d]
	bindAt      [][]int      // [d] → input indices bound at depth d
	leafSlots   []leafSlot
	suffixes    [][]suffixSpec // [d], d in 0..L-1

	// regBase[d+1] is the first register of depth d's slots (regBase[0] of
	// the global slots); nreg sizes the register file.
	regBase []int
	nreg    int
	chains  [][]chainTab // [d] → arity classes of suffixes[d]
	// lookups[d+1] are depth d's lookup slots cut into runs and locals[d+1]
	// its local slots' indices (index 0: the global slots, all lookups).
	lookups [][]lookupRun
	locals  [][]int

	emits       []emitSpec
	emitGroups  []emitGroup
	emitsAt     [][]int // [d] → emitGroup indices with regDepth == d
	emitsScalar []int   // emitGroup indices with regDepth == -1

	views []*core.View
	// targets[i] is the consumer node schema for finalize (nil for outputs).
	targets [][]data.AttrID
}

type planCompiler struct {
	gp        *groupPlan
	compiled  bool
	depthIdx  map[data.AttrID]int
	slotSigs  []map[string]int // per depth
	globalSig map[string]int
	leafSig   map[string]int
	sfxSigs   []map[string]int
	inputIdx  map[int]int // view ID → inputs index
}

// compileGroup builds the multi-output plan for group g from the logical
// plan alone; materialized input views are bound later at execution time.
func compileGroup(p *core.Plan, g *core.Group, compiled bool) (*groupPlan, error) {
	node := p.Tree.Nodes[g.Node]
	gp := &groupPlan{group: g, node: node}
	pc := &planCompiler{
		gp:        gp,
		compiled:  compiled,
		globalSig: map[string]int{},
		leafSig:   map[string]int{},
		inputIdx:  map[int]int{},
	}

	// Collect the distinct input views.
	var inputIDs []int
	for _, vid := range g.Views {
		v := p.Views[vid]
		gp.views = append(gp.views, v)
		if v.IsOutput() {
			gp.targets = append(gp.targets, nil)
		} else {
			gp.targets = append(gp.targets, p.Tree.Nodes[v.To].Attrs)
		}
		for _, in := range v.InputViews() {
			if _, ok := pc.inputIdx[in]; !ok {
				pc.inputIdx[in] = len(inputIDs)
				inputIDs = append(inputIDs, in)
			}
		}
	}
	inKeys := make([][]data.AttrID, len(inputIDs))
	inExtras := make([][]data.AttrID, len(inputIDs))
	for i, id := range inputIDs {
		for _, a := range p.Views[id].GroupBy {
			if node.HasAttr(a) {
				inKeys[i] = append(inKeys[i], a)
			} else {
				inExtras[i] = append(inExtras[i], a)
			}
		}
	}

	// Join-attribute order: the plan's cost-based order of the node,
	// restricted to the group's attributes.
	gp.order = p.GroupOrder(g)
	gp.L = len(gp.order)
	pc.depthIdx = make(map[data.AttrID]int, gp.L)
	for d, a := range gp.order {
		pc.depthIdx[a] = d
	}
	gp.depthSlots = make([][]slotSpec, gp.L)
	gp.bindAt = make([][]int, gp.L)
	gp.suffixes = make([][]suffixSpec, gp.L)
	gp.emitsAt = make([][]int, gp.L)
	pc.slotSigs = make([]map[string]int, gp.L)
	pc.sfxSigs = make([]map[string]int, gp.L)
	for d := 0; d < gp.L; d++ {
		pc.slotSigs[d] = map[string]int{}
		pc.sfxSigs[d] = map[string]int{}
	}

	// Input registration (paper: "each view is registered at the lowest
	// attribute in the order that is a group-by attribute of V").
	for i, id := range inputIDs {
		in := inputSpec{
			id:         id,
			keyAttrs:   inKeys[i],
			extraAttrs: inExtras[i],
			bindDepth:  -1,
			carried:    len(inExtras[i]) > 0,
		}
		for _, a := range in.keyAttrs {
			d := pc.depthIdx[a]
			in.keyDepths = append(in.keyDepths, d)
			if d > in.bindDepth {
				in.bindDepth = d
			}
		}
		idx := len(gp.inputs)
		gp.inputs = append(gp.inputs, in)
		if in.bindDepth == -1 {
			gp.globalBind = append(gp.globalBind, idx)
		} else {
			gp.bindAt[in.bindDepth] = append(gp.bindAt[in.bindDepth], idx)
		}
	}

	// Aggregate registration per view column term.
	for vi, v := range gp.views {
		for ci, col := range v.Cols {
			for ti, aggIdx := range col.Aggs {
				if err := pc.registerTerm(p, vi, v, ci, col.Coefs[ti], v.Aggs[aggIdx]); err != nil {
					return nil, err
				}
			}
		}
	}
	gp.regBase = make([]int, gp.L+1)
	gp.regBase[0] = 1
	gp.nreg = 1 + len(gp.globalSlots)
	for d := 0; d < gp.L; d++ {
		gp.regBase[d+1] = gp.nreg
		gp.nreg += len(gp.depthSlots[d])
	}
	gp.buildSlotRuns()
	gp.buildEmitGroups(gp.buildChains())
	return gp, nil
}

// reg returns the register holding slot r.
func (gp *groupPlan) reg(r slotRef) int32 { return int32(gp.regBase[r.depth+1] + r.idx) }

// buildSlotRuns cuts the global slots and each depth's slots into maximal
// lookup runs (lookups) and lists each depth's local slots (locals). Slots
// keep their registers: runs are found, not made, by the order in which
// registerTerm interns lookups.
func (gp *groupPlan) buildSlotRuns() {
	gp.lookups = make([][]lookupRun, gp.L+1)
	gp.locals = make([][]int, gp.L+1)
	for d := -1; d < gp.L; d++ {
		specs := gp.globalSlots
		if d >= 0 {
			specs = gp.depthSlots[d]
		}
		var runs []lookupRun
		for i, s := range specs {
			if s.kind == localSlot {
				gp.locals[d+1] = append(gp.locals[d+1], i)
				continue
			}
			r := int(gp.reg(slotRef{depth: d, idx: i}))
			if k := len(runs) - 1; k >= 0 {
				l := &runs[k]
				if l.input == s.input && l.reg+l.n == r && l.col+l.n == s.col {
					l.n++
					continue
				}
			}
			runs = append(runs, lookupRun{reg: r, n: 1, input: s.input, col: s.col})
		}
		gp.lookups[d+1] = runs
	}
}

// buildEmitGroups batches emissions sharing (view, regDepth, key sources,
// carried views), registers the groups at their depths and lays out each
// group's emission program against the running-sum numbering sid.
func (gp *groupPlan) buildEmitGroups(sid [][]int32) {
	// k is the group key: "v<view>@<regDepth>|" then "k<carried>.<depth>.<extraCol>,"
	// per key source, "|", and "c<input>," per carried view.
	var k []byte
	num := func(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }
	idx := map[string]int{}
	for ei := range gp.emits {
		e := &gp.emits[ei]
		k = append(num(append(num(append(k[:0], 'v'), e.view), '@'), e.regDepth), '|')
		for _, ks := range e.keySrc {
			k = append(num(append(num(append(num(append(k, 'k'), ks.carried), '.'), ks.depth), '.'), ks.extraCol), ',')
		}
		k = append(k, '|')
		for _, cr := range e.carried {
			k = append(num(append(k, 'c'), cr.input), ',')
		}
		gi, ok := idx[string(k)]
		if !ok {
			gi = len(gp.emitGroups)
			g := emitGroup{view: e.view, regDepth: e.regDepth, keySrc: e.keySrc, w: 2}
			for _, cr := range e.carried {
				g.carriedInputs = append(g.carriedInputs, cr.input)
			}
			gp.emitGroups = append(gp.emitGroups, g)
			idx[string(k)] = gi
			if e.regDepth == -1 {
				gp.emitsScalar = append(gp.emitsScalar, gi)
			} else {
				gp.emitsAt[e.regDepth] = append(gp.emitsAt[e.regDepth], gi)
			}
		}
		e.group = gi
		g := &gp.emitGroups[gi]
		g.w = max(g.w, len(e.prefix))
		g.coef = append(g.coef, e.coef)
	}
	size := 0
	for _, g := range gp.emitGroups {
		size += (2 + g.w + len(g.carriedInputs)) * len(g.coef)
	}
	prog := make([]int32, size) // zeroed: prefixes padded with register 0
	coef := make([]float64, len(gp.emits))
	for gi := range gp.emitGroups {
		g := &gp.emitGroups[gi]
		n, m := len(g.coef), (2+g.w+len(g.carriedInputs))*len(g.coef)
		copy(coef, g.coef)
		g.prog, prog = prog[:m:m], prog[m:]
		g.coef, coef = coef[:n:n], coef[n:]
	}
	at := make([]int, len(gp.emitGroups))
	for _, e := range gp.emits {
		g := &gp.emitGroups[e.group]
		col, sfx, pre, ccol := g.arrays()
		i, n := at[e.group], len(g.coef)
		at[e.group]++
		col[i], sfx[i] = int32(e.col), sid[e.regDepth+1][e.suffix]
		for j, r := range e.prefix {
			pre[j*n+i] = gp.reg(r)
		}
		for j, cr := range e.carried {
			ccol[j*n+i] = int32(cr.col)
		}
	}
	for gi := range gp.emitGroups {
		gp.emitGroups[gi].runs = gp.emitGroups[gi].unitRuns()
	}
}

// unitRuns cuts g's program into runs (emitRuns) when its check-free walk
// multiplies by 1 only where it may skip it: no carried views, every
// coefficient 1 and the second prefix column register 0. It returns nil
// otherwise.
func (g *emitGroup) unitRuns() []emitRun {
	col, sfx, pre, _ := g.arrays()
	n := len(g.coef)
	if g.w != 2 || len(g.carriedInputs) != 0 || slices.ContainsFunc(g.coef, func(c float64) bool { return c != 1 }) ||
		slices.ContainsFunc(pre[n:], func(r int32) bool { return r != 0 }) {
		return nil
	}
	return emitRuns(col, sfx, pre[:n])
}

// emitRun is a stretch of n emission entries writing consecutive output
// columns col… of a group with unit coefficients and one prefix register.
// Along it either the running sum steps, column col+i getting R[sfx+i] ×
// reg[reg], or the register does (byReg), column col+i getting R[sfx] ×
// reg[reg+i]. Skipping the entries' multiplications by exactly 1 (the
// coefficient, the padding register and register 0) leaves every sum's
// operands and order, so the bits, unchanged: x × 1 = x in IEEE arithmetic.
type emitRun struct {
	col, sfx, reg, n int32
	byReg            bool
}

// emitRuns cuts an emission program, given as its column, running-sum and
// first prefix register arrays, into maximal runs, greedily in entry order:
// an entry extends the last run when it writes the next column and steps
// the running sum or the register by one as the run does. Runs keep the
// entry order, so a column written twice is written in the same order.
func emitRuns(col, sfx, pre []int32) []emitRun {
	var runs []emitRun
	for i := range col {
		if k := len(runs) - 1; k >= 0 && col[i] == runs[k].col+runs[k].n {
			r := &runs[k]
			bySum := sfx[i] == sfx[i-1]+1 && pre[i] == pre[i-1]
			byReg := sfx[i] == sfx[i-1] && pre[i] == pre[i-1]+1
			if bySum && (r.n == 1 || !r.byReg) || byReg && (r.n == 1 || r.byReg) {
				r.byReg = byReg
				r.n++
				continue
			}
		}
		runs = append(runs, emitRun{col: col[i], sfx: sfx[i], reg: pre[i], n: 1})
	}
	return runs
}

// registerTerm decomposes one product aggregate into slots, a suffix chain
// and an emission.
func (pc *planCompiler) registerTerm(p *core.Plan, vi int, v *core.View, col int, coef float64, pa core.ProdAgg) error {
	gp := pc.gp
	e := emitSpec{view: vi, col: col, coef: coef, regDepth: -1}

	// Partition local factors by depth; fold constants into the coefficient.
	localByDepth := make(map[int][]query.Factor)
	var leafFactors []query.Factor
	for _, f := range pa.Factors {
		switch {
		case !f.HasAttr():
			e.coef *= f.Value
		default:
			if d, ok := pc.depthIdx[f.Attr]; ok {
				localByDepth[d] = append(localByDepth[d], f)
			} else {
				if !gp.node.HasAttr(f.Attr) {
					return fmt.Errorf("moo: factor attribute %d not in node %q", f.Attr, gp.node.Rel.Name)
				}
				leafFactors = append(leafFactors, f)
			}
		}
	}

	// Registration depth: deepest order-resident group-by attribute and
	// deepest carried-view binding.
	for _, g := range v.GroupBy {
		if d, ok := pc.depthIdx[g]; ok && gp.node.HasAttr(g) {
			if d > e.regDepth {
				e.regDepth = d
			}
		}
	}
	type carriedIn struct {
		inputIdx int
		ref      core.InputRef
	}
	var carriedIns []carriedIn
	var scalarIns []carriedIn
	for _, in := range pa.Inputs {
		ii, ok := pc.inputIdx[in.View]
		if !ok {
			return fmt.Errorf("moo: unregistered input view %d", in.View)
		}
		if gp.inputs[ii].carried {
			carriedIns = append(carriedIns, carriedIn{ii, in})
			if bd := gp.inputs[ii].bindDepth; bd > e.regDepth {
				e.regDepth = bd
			}
		} else {
			scalarIns = append(scalarIns, carriedIn{ii, in})
		}
	}
	for _, c := range carriedIns {
		e.carried = append(e.carried, carriedRef{input: c.inputIdx, col: c.ref.Agg})
	}

	// Assemble per-depth slot lists.
	suffixSlots := make([][]int, gp.L) // depth → slot indices (depth > regDepth)
	addSlot := func(depth int, spec slotSpec, sig string) {
		var idx int
		if depth == -1 {
			idx = pc.internGlobal(spec, sig)
		} else {
			idx = pc.internDepth(depth, spec, sig)
		}
		if depth <= e.regDepth {
			e.prefix = append(e.prefix, slotRef{depth: depth, idx: idx})
		} else {
			suffixSlots[depth] = append(suffixSlots[depth], idx)
		}
	}
	var depths []int
	for d := range localByDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		fs := localByDepth[d]
		sortFactors(fs)
		addSlot(d, pc.makeLocalSlot(fs), localSig(fs))
	}
	for _, s := range scalarIns {
		spec := slotSpec{kind: lookupSlot, input: s.inputIdx, col: s.ref.Agg}
		sig := strconv.AppendInt(append(strconv.AppendInt([]byte("lk"), int64(s.inputIdx), 10), '.'), int64(s.ref.Agg), 10)
		addSlot(gp.inputs[s.inputIdx].bindDepth, spec, string(sig))
	}

	// Leaf slot terminates every chain (the row-level count/row-factor sum).
	sortFactors(leafFactors)
	leafID := pc.internLeaf(leafFactors)

	// Build the suffix chain bottom-up from the leaf.
	next := leafID
	for d := gp.L - 1; d > e.regDepth; d-- {
		slots := suffixSlots[d]
		sort.Ints(slots)
		next = pc.internSuffix(d, slots, next)
	}
	e.suffix = next

	// Key sources: order-resident attributes, then carried extras, in
	// view.GroupBy order.
	for _, g := range v.GroupBy {
		if d, ok := pc.depthIdx[g]; ok && gp.node.HasAttr(g) {
			e.keySrc = append(e.keySrc, keySource{carried: -1, depth: d})
			continue
		}
		found := false
		for ci, c := range e.carried {
			in := &gp.inputs[c.input]
			gbAttrs := p.Views[in.id].GroupBy
			for _, ea := range in.extraAttrs {
				if ea != g {
					continue
				}
				for ep, ga := range gbAttrs {
					if ga == g {
						e.keySrc = append(e.keySrc, keySource{carried: ci, extraCol: ep})
						found = true
						break
					}
				}
				break
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("moo: group-by attribute %d of view %d has no source", g, v.ID)
		}
	}

	gp.emits = append(gp.emits, e)
	return nil
}

func (pc *planCompiler) makeLocalSlot(fs []query.Factor) slotSpec {
	spec := slotSpec{kind: localSlot, factors: fs}
	if pc.compiled {
		spec.fn = composeFactors(fs)
	}
	return spec
}

// composeFactors folds a factor product into one closure — the closure
// analogue of the paper's inlined function calls.
func composeFactors(fs []query.Factor) func(float64) float64 {
	switch len(fs) {
	case 0:
		return func(float64) float64 { return 1 }
	case 1:
		return fs[0].Compile()
	case 2:
		a, b := fs[0].Compile(), fs[1].Compile()
		return func(x float64) float64 { return a(x) * b(x) }
	default:
		compiled := make([]func(float64) float64, len(fs))
		for i, f := range fs {
			compiled[i] = f.Compile()
		}
		return func(x float64) float64 {
			p := 1.0
			for _, fn := range compiled {
				p *= fn(x)
			}
			return p
		}
	}
}

// composeRow builds the per-row product closure over resolved columns.
func composeRow(fs []query.Factor, cols []data.Column) func(int) float64 {
	acc := make([]func(int) float64, len(fs))
	for i, f := range fs {
		fn := f.Compile()
		if cols[i].IsInt() {
			ints := cols[i].Ints
			acc[i] = func(r int) float64 { return fn(float64(ints[r])) }
		} else {
			flts := cols[i].Floats
			acc[i] = func(r int) float64 { return fn(flts[r]) }
		}
	}
	switch len(acc) {
	case 1:
		return acc[0]
	case 2:
		a, b := acc[0], acc[1]
		return func(r int) float64 { return a(r) * b(r) }
	default:
		return func(r int) float64 {
			p := 1.0
			for _, fn := range acc {
				p *= fn(r)
			}
			return p
		}
	}
}

// Interning note: sharing partial products, lookups and running-sum chains
// across aggregates via local variables is part of the paper's Compilation
// layer ("introduction of local variables [to] maximize the computation
// sharing across many aggregates", "reuse of arithmetic operations"). The
// interpreted AC/DC proxy therefore skips deduplication and recomputes each
// aggregate's partials independently.

func (pc *planCompiler) internDepth(d int, spec slotSpec, sig string) int {
	if i, ok := pc.slotSigs[d][sig]; ok && pc.compiled {
		return i
	}
	i := len(pc.gp.depthSlots[d])
	pc.gp.depthSlots[d] = append(pc.gp.depthSlots[d], spec)
	pc.slotSigs[d][sig] = i
	return i
}

func (pc *planCompiler) internGlobal(spec slotSpec, sig string) int {
	if i, ok := pc.globalSig[sig]; ok && pc.compiled {
		return i
	}
	i := len(pc.gp.globalSlots)
	pc.gp.globalSlots = append(pc.gp.globalSlots, spec)
	pc.globalSig[sig] = i
	return i
}

func (pc *planCompiler) internLeaf(fs []query.Factor) int {
	sig := localSig(fs)
	if i, ok := pc.leafSig[sig]; ok && pc.compiled {
		return i
	}
	ls := leafSlot{factors: fs, compiled: pc.compiled}
	for _, f := range fs {
		ls.cols = append(ls.cols, pc.gp.node.Rel.MustCol(f.Attr))
	}
	i := len(pc.gp.leafSlots)
	pc.gp.leafSlots = append(pc.gp.leafSlots, ls)
	pc.leafSig[sig] = i
	return i
}

// internSuffix interns the chain of slots at depth d ending in next, keyed
// "<slot>,<slot>,…|<next>".
func (pc *planCompiler) internSuffix(d int, slots []int, next int) int {
	var buf [64]byte
	sig := buf[:0]
	for i, s := range slots {
		if i > 0 {
			sig = append(sig, ',')
		}
		sig = strconv.AppendInt(sig, int64(s), 10)
	}
	sig = strconv.AppendInt(append(sig, '|'), int64(next), 10)
	if i, ok := pc.sfxSigs[d][string(sig)]; ok && pc.compiled {
		return i
	}
	i := len(pc.gp.suffixes[d])
	pc.gp.suffixes[d] = append(pc.gp.suffixes[d], suffixSpec{slots: slots, next: next})
	pc.sfxSigs[d][string(sig)] = i
	return i
}

// sortFactors orders fs by attribute, then by signature: a stable insertion
// sort over a handful of factors, building signatures only for ties.
func sortFactors(fs []query.Factor) {
	less := func(a, b *query.Factor) bool {
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		var x, y [64]byte
		return string(a.AppendSignature(x[:0])) < string(b.AppendSignature(y[:0]))
	}
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && less(&fs[j], &fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// localSig keys a factor product: the factor signatures joined by '*'.
func localSig(fs []query.Factor) string {
	var buf [128]byte
	sig := buf[:0]
	for i, f := range fs {
		if i > 0 {
			sig = append(sig, '*')
		}
		sig = f.AppendSignature(sig)
	}
	return string(sig)
}

// numSuffix returns the number of running-sum entries at depth d, where
// depth L aliases the leaf slots.
func (gp *groupPlan) numSuffix(d int) int {
	if d == gp.L {
		return len(gp.leafSlots)
	}
	return len(gp.suffixes[d])
}

// resolveLeafCols rebinds leaf slot columns against rel (the sorted copy may
// differ from the relation used at compile time) and composes the per-row
// closures in compiled mode.
func (gp *groupPlan) resolveLeafCols() {
	for i := range gp.leafSlots {
		ls := &gp.leafSlots[i]
		for j, f := range ls.factors {
			ls.cols[j] = gp.rel.MustCol(f.Attr)
		}
		if ls.compiled && len(ls.factors) > 0 {
			ls.rowFn = composeRow(ls.factors, ls.cols)
		}
	}
}
