package moo

import (
	"fmt"
	"slices"

	"repro/internal/data"
)

// execCtx holds the per-goroutine mutable state of one multi-output scan: the
// register file the group plan's flat program runs against, running sums,
// input binds and output builders. Running sums and emissions have two walks
// over the same tables: check-free when every slot read is bound and the
// running-sum level read is fully present, else checked per entry, skipping
// absent contributions. An unbound slot is not encoded as a zero factor: a
// skipped contribution must vanish, and 0 × -Inf (SUM(ln x), x = 0) is NaN.
type execCtx struct {
	gp        *groupPlan
	inViews   []*ViewData // materialized inputs, parallel to gp.inputs
	orderCols [][]int64
	// ids, when non-nil, indirects the scan: position i reads physical row
	// ids[i] of gp.rel, and [lo, hi) ranges index into ids. The ids must be
	// sorted by the order-attribute values (data.Relation.SortIDsBy), which
	// makes the trie-style range walk valid against an unsorted relation —
	// the row-id-batched restricted scan of compiled maintenance kernels.
	ids []int32

	curVals []int64 // bound order-attribute values
	// reg is the register file (layout: groupPlan.regBase; reg[0] = 1), ok
	// flags its bound registers (only lookups clear one), and unb[d+1] counts
	// the unbound lookups at depths -1..d: the hot path tests one count.
	reg     []float64
	ok      []bool
	unb     []int
	binds   [][2]int32 // per input: current entry range
	bindOK  []bool
	bindKey []int64 // consumer-key values of the bind in progress

	// R[d] are the running sums (paper's r_d), numbered as the chain tables
	// write them; R[L] aliases the leaf slot values. P is the parallel
	// join-presence flag: a group-by key exists in an output only if a join
	// tuple exists for it, even when every aggregate value is zero. full[d]
	// records that every P[d] flag is set: flags only turn on within one scan
	// of depth d, so one check-free iteration marks the whole level present.
	R    [][]float64
	P    [][]bool
	full []bool

	builders []*viewBuilder
	keyvals  []int64
	crow     []int32   // current entry row per carried input during emission
	vbuf     []float64 // per-entry products of the emission in progress
}

// newExecCtx returns a context for executions of gp, with no inputs bound
// (bind) and no builders (newBuilders).
func newExecCtx(gp *groupPlan) *execCtx {
	c := &execCtx{gp: gp}
	c.inViews = make([]*ViewData, len(gp.inputs))
	c.orderCols = make([][]int64, gp.L)
	c.curVals = lineAligned[int64](gp.L)
	c.reg = lineAligned[float64](gp.nreg)
	c.reg[0] = 1
	c.ok = lineAligned[bool](gp.nreg)
	for i := range c.ok {
		c.ok[i] = true
	}
	c.unb = lineAligned[int](gp.L + 1)
	c.binds = lineAligned[[2]int32](len(gp.inputs))
	c.bindOK = lineAligned[bool](len(gp.inputs))
	c.R = make([][]float64, gp.L+1)
	c.P = make([][]bool, gp.L+1)
	for d := 0; d <= gp.L; d++ {
		c.R[d] = lineAligned[float64](gp.numSuffix(d))
		c.P[d] = lineAligned[bool](gp.numSuffix(d))
	}
	for i := range c.P[gp.L] {
		c.P[gp.L][i] = true // leaf presence: reached ⇒ rows exist
	}
	c.full = lineAligned[bool](gp.L + 1)
	c.full[gp.L] = true
	maxKey := 0
	for _, v := range gp.views {
		if len(v.GroupBy) > maxKey {
			maxKey = len(v.GroupBy)
		}
	}
	c.keyvals = lineAligned[int64](maxKey)
	c.bindKey = lineAligned[int64](gp.L)
	c.crow = lineAligned[int32](len(gp.inputs))
	c.vbuf = lineAligned[float64](len(gp.emits))
	return c
}

// newBuilders gives the context fresh builders laid out by wins and dense,
// in a new slice: the last execution's builders stay with their holder.
func (c *execCtx) newBuilders(scalarInit bool, dense []*denseLayout, wins []runWindow) {
	c.builders = make([]*viewBuilder, len(c.gp.views))
	for i, v := range c.gp.views {
		if wins[i].store != nil {
			c.builders[i] = newViewBuilder(v.GroupBy, len(v.Cols), false, nil)
			c.builders[i].useRun(wins[i])
			continue
		}
		c.builders[i] = newViewBuilder(v.GroupBy, len(v.Cols), scalarInit && v.IsOutput(), dense[i])
	}
}

// lineAligned returns n zeroed Ts on 64-byte cache lines no other object
// shares: for elements of at most 8 bytes, a capacity in multiples of 64 is
// a whole number of lines, and such size classes start on line boundaries.
// Domain-parallel contexts write this state from different cores at every
// trie level; packed, their arrays shared lines, and two-thread
// batch_groupby ran ~1.3× slower than with this layout.
func lineAligned[T any](n int) []T { return make([]T, n, (n/64+1)*64) }

// bind points the context at produced's input views and gp.rel's order
// columns for another execution of the same group plan, and clears the id
// indirection until the caller installs one. The plan-shape-dependent
// register, running-sum and bind arrays keep their storage: scan re-zeroes
// R/P levels on entry, and every register is recomputed before it is read.
func (c *execCtx) bind(produced []*ViewData) error {
	gp := c.gp
	for i, in := range gp.inputs {
		vd := produced[in.id]
		if vd == nil {
			return fmt.Errorf("moo: input view %d of group %d not yet produced", in.id, gp.group.ID)
		}
		c.inViews[i] = vd
	}
	for d, a := range gp.order {
		c.orderCols[d] = gp.rel.MustCol(a).Ints
	}
	c.ids = nil
	return nil
}

// layouts picks each view's addressing for one execution of gp over the
// rows ids, or over the sorted rows [0, n) cut into morsels at bounds
// (bounds[0] = 0, the last bound n; one builder set per morsel). It
// returns per view a dense layout or nil, and per morsel and view a run
// window, whose store is nil for views not built in runs.
//
// One budget covers every view: the bytes of the 8-byte values the scan
// reads, 8 × scanned rows × relation width, so the builders' pre-sized
// memory never exceeds the scan's input and walking it costs no more than
// the scan.
//   - Dense boxes (keyBoxes) are granted first, smallest first, charged 4
//     bytes per slot.
//   - Run stores then take what is left, on scans without ids: a view keyed
//     by a prefix of the scan order (runLen) gets a store sized to the
//     distinct key prefixes of the scanned rows, charged its key and value
//     bytes, one window per morsel. Morsels split at the first order
//     attribute, so no key is in two of them. The view drops its box, or
//     keeps it when its sort order is not the scan's: finalize walks the box
//     to order the store, as it walks a dense builder's slots, and sorts the
//     store without one, as it sorts a hashed builder.
func (gp *groupPlan) layouts(produced []*ViewData, ids []int32, bounds []int) ([]*denseLayout, [][]runWindow) {
	n := bounds[len(bounds)-1]
	budget := 8 * n * len(gp.rel.Attrs)
	boxes := gp.keyBoxes(produced, ids, n)
	type fit struct{ view, size int }
	var fits []fit
	for i, box := range boxes {
		if size, ok := boxSize(box, budget/4); box != nil && ok {
			fits = append(fits, fit{i, size})
		}
	}
	slices.SortStableFunc(fits, func(a, b fit) int { return a.size - b.size })
	dense := make([]*denseLayout, len(gp.views))
	for _, f := range fits {
		if 4*f.size > budget {
			break
		}
		budget -= 4 * f.size
		order, _ := sortOrder(gp.views[f.view].GroupBy, gp.targets[f.view])
		dense[f.view] = newDenseLayout(boxes[f.view], order, f.size)
	}

	wins := make([][]runWindow, len(bounds)-1)
	for t := range wins {
		wins[t] = make([]runWindow, len(gp.views))
	}
	if ids != nil {
		return dense, wins
	}
	ks, sorted, maxK := make([]int, len(gp.views)), make([]bool, len(gp.views)), 0
	for i := range gp.views {
		ks[i], sorted[i] = gp.runLen(i)
		maxK = max(maxK, ks[i])
	}
	if maxK == 0 {
		return dense, wins
	}
	counts := gp.prefixCounts(bounds, maxK)
	for i, v := range gp.views {
		k, total := ks[i], 0
		for t := range wins {
			total += counts[t][k]
		}
		cost := 8 * total * (len(v.GroupBy) + len(v.Cols))
		if k == 0 || cost > budget {
			continue
		}
		budget -= cost
		st := &runStore{keys: make([][]int64, len(v.GroupBy)), vals: make([]float64, total*len(v.Cols)), sorted: sorted[i]}
		for c := range st.keys {
			st.keys[c] = make([]int64, total)
		}
		if !st.sorted {
			st.walk = dense[i]
		}
		dense[i] = nil
		off := 0
		for t := range wins {
			wins[t][i] = runWindow{store: st, off: off, n: counts[t][k]}
			off += counts[t][k]
		}
	}
	return dense, wins
}

// runLen returns k ≥ 1 when view vi can be built in runs: every emit group
// writing it keys it by the scan's first k order attributes, so its keys
// arrive in scan order, each key's writes in one run of the scan. It returns
// 0 otherwise. sorted reports that the view's sort order lists the key as
// the scan order does. Group-by attributes are distinct, so k key parts
// bound at depths below k are bound at each of them.
func (gp *groupPlan) runLen(vi int) (k int, sorted bool) {
	for gi := range gp.emitGroups {
		g := &gp.emitGroups[gi]
		if g.view != vi {
			continue
		}
		for _, ks := range g.keySrc {
			if ks.carried >= 0 || ks.depth >= len(g.keySrc) {
				return 0, false
			}
		}
		k = len(g.keySrc)
	}
	v := gp.views[vi]
	order, _ := sortOrder(v.GroupBy, gp.targets[vi])
	for d := 0; d < k; d++ {
		if v.GroupBy[order[d]] != gp.order[d] {
			return k, false
		}
	}
	return k, true
}

// prefixCounts returns, per morsel [bounds[t], bounds[t+1]) of the sorted
// scan relation, the number of distinct k-prefixes of its order attributes
// for k = 0..maxK (index k).
func (gp *groupPlan) prefixCounts(bounds []int, maxK int) [][]int {
	cols := make([][]int64, maxK)
	for d := range cols {
		cols[d] = gp.rel.MustCol(gp.order[d]).Ints
	}
	out := make([][]int, len(bounds)-1)
	for t := range out {
		// first[d] counts the rows after the morsel's first whose first
		// differing order attribute is d: each starts a new k-prefix for
		// every k > d.
		first := make([]int, maxK+1)
		lo, hi := bounds[t], bounds[t+1]
		for i := lo + 1; i < hi; i++ {
			d := 0
			for d < maxK && cols[d][i] == cols[d][i-1] {
				d++
			}
			first[d]++
		}
		cnt := make([]int, maxK+1)
		if lo < hi {
			cnt[0] = 1
			for k := 1; k <= maxK; k++ {
				cnt[k] = cnt[k-1] + first[k-1]
			}
		}
		out[t] = cnt
	}
	return out
}

// keyBoxes returns each view's key box for a scan of gp.rel's n rows, or of
// the rows ids: over the emit groups writing the view, the union of each key
// part's source — a bound part's scanned order-column values (the whole
// relation without ids: the morsels' parts share one box), a carried
// part's range as its input view recorded it.
func (gp *groupPlan) keyBoxes(produced []*ViewData, ids []int32, n int) [][]keySpan {
	bound := make([]keySpan, gp.L)
	for d, a := range gp.order {
		col := gp.rel.MustCol(a).Ints
		switch {
		case ids != nil:
			bound[d] = spanOf(col, ids)
		case d == 0 && n > 0:
			bound[d] = keySpan{col[0], col[n-1]} // the relation is sorted by it
		default:
			bound[d] = spanOf(col[:n], nil)
		}
	}
	boxes := make([][]keySpan, len(gp.views))
	for gi := range gp.emitGroups {
		g := &gp.emitGroups[gi]
		if boxes[g.view] == nil {
			boxes[g.view] = make([]keySpan, len(g.keySrc))
			for c := range g.keySrc {
				boxes[g.view][c] = emptySpan
			}
		}
		for c, ks := range g.keySrc {
			s := fullSpan
			if ks.carried < 0 {
				s = bound[ks.depth]
			} else if in := produced[gp.inputs[g.carriedInputs[ks.carried]].id]; in != nil && in.box != nil {
				s = in.box[ks.extraCol]
			}
			boxes[g.view][c] = boxes[g.view][c].union(s)
		}
	}
	return boxes
}

// run executes the scan over rows [lo, hi) of the group relation and then
// performs the scalar (no group-by) emissions.
func (c *execCtx) run(lo, hi int) {
	// Bind inputs with empty consumer keys once.
	for _, ii := range c.gp.globalBind {
		c.bindInput(ii)
	}
	c.computeSlots(-1)
	c.scan(0, lo, hi)
	for _, ei := range c.gp.emitsScalar {
		c.emit(ei)
	}
}

// scan is the trie-style nested-loops join over the attribute order.
func (c *execCtx) scan(d, lo, hi int) {
	gp := c.gp
	if d == gp.L {
		c.computeLeaf(lo, hi)
		return
	}
	rd, pd, rn, pn := c.R[d], c.P[d], c.R[d+1], c.P[d+1]
	clear(rd)
	clear(pd)
	c.full[d] = false
	col := c.orderCols[d]
	for lo < hi {
		var end int
		if c.ids == nil {
			end = data.RangeEnd(col, lo, hi)
			c.curVals[d] = col[lo]
		} else {
			end = data.RangeEndIDs(col, c.ids, lo, hi)
			c.curVals[d] = col[c.ids[lo]]
		}
		for _, ii := range gp.bindAt[d] {
			c.bindInput(ii)
		}
		c.computeSlots(d)
		c.scan(d+1, lo, end)
		for _, ei := range gp.emitsAt[d] {
			c.emit(ei)
		}
		// Accumulate running sums (paper's r_d updates), one arity class at
		// a time — the aggregate-array organization of the paper's
		// generated code.
		if c.unb[d+1] == c.unb[d] && c.full[d+1] {
			for i := range gp.chains[d] {
				gp.chains[d][i].add(c.reg, rd, rn)
			}
			if !c.full[d] {
				c.full[d] = true
				for i := range pd {
					pd[i] = true
				}
			}
		} else {
			for i := range gp.chains[d] {
				gp.chains[d][i].addChecked(c.reg, c.ok, rd, rn, pd, pn)
			}
		}
		lo = end
	}
}

// add is the check-free walk of one arity class: every slot is bound and
// every next-level running sum present.
func (t *chainTab) add(reg, rd, rn []float64) {
	next := t.next
	n := len(next)
	rd = rd[t.off:][:n]
	switch t.w {
	case 0:
		for i, nx := range next {
			rd[i] += rn[nx]
		}
	case 1:
		a := t.regs[:n]
		for i, nx := range next {
			rd[i] += reg[a[i]] * rn[nx]
		}
	case 2:
		a, b := t.regs[:n], t.regs[n:][:n]
		for i, nx := range next {
			rd[i] += reg[a[i]] * reg[b[i]] * rn[nx]
		}
	default:
		for i, nx := range next {
			p := 1.0
			for j := i; j < len(t.regs); j += n {
				p *= reg[t.regs[j]]
			}
			rd[i] += p * rn[nx]
		}
	}
}

// addChecked is the checked walk: a chain contributes, and marks its running
// sum present, only when its next-level sum is present and its slots bound.
func (t *chainTab) addChecked(reg []float64, ok []bool, rd, rn []float64, pd, pn []bool) {
	n := len(t.next)
	rd, pd = rd[t.off:][:n], pd[t.off:][:n]
chains:
	for i, nx := range t.next {
		if !pn[nx] {
			continue
		}
		p := 1.0
		for j := i; j < len(t.regs); j += n {
			r := t.regs[j]
			if !ok[r] {
				continue chains
			}
			p *= reg[r]
		}
		rd[i] += p * rn[nx]
		pd[i] = true
	}
}

// bindInput resolves the entry range of input ii for the currently bound
// consumer-key values through ViewData.bind: a range check and two loads in
// the view's row directory, or a search of its sorted consumer-key columns
// when it has none.
func (c *execCtx) bindInput(ii int) {
	in := &c.gp.inputs[ii]
	key := c.bindKey[:len(in.keyDepths)]
	for j, d := range in.keyDepths {
		key[j] = c.curVals[d]
	}
	lo, hi, ok := c.inViews[ii].bind(key)
	c.binds[ii] = [2]int32{lo, hi}
	c.bindOK[ii] = ok
}

// computeSlots evaluates the slot registers of depth d (or the global slots
// for d == -1) and counts the unbound lookups. A lookup run is filled by one
// copy from its input's bound row, or marked unbound as a whole.
func (c *execCtx) computeSlots(d int) {
	gp := c.gp
	if locals := gp.locals[d+1]; len(locals) > 0 {
		specs, base := gp.depthSlots[d], gp.regBase[d+1]
		x := float64(c.curVals[d])
		for _, i := range locals {
			s := &specs[i]
			if s.fn != nil {
				c.reg[base+i] = s.fn(x)
				continue
			}
			p := 1.0
			for _, f := range s.factors {
				p *= f.Eval(x)
			}
			c.reg[base+i] = p
		}
	}
	unbound := 0
	for _, l := range gp.lookups[d+1] {
		// A run's flags are written together, so its first tells all.
		bound := c.bindOK[l.input]
		if ok := c.ok[l.reg:][:l.n]; ok[0] != bound {
			for i := range ok {
				ok[i] = bound
			}
		}
		if !bound {
			unbound += l.n
			continue
		}
		vd := c.inViews[l.input]
		copy(c.reg[l.reg:][:l.n], vd.Vals[int(c.binds[l.input][0])*vd.Stride+l.col:])
	}
	if d < 0 {
		c.unb[0] = unbound
	} else {
		c.unb[d+1] = c.unb[d] + unbound
	}
}

// computeLeaf fills R[L] with the row-level sums over [lo, hi): counts for
// empty leaf slots and Σ_rows Π f(row) otherwise.
func (c *execCtx) computeLeaf(lo, hi int) {
	rl := c.R[c.gp.L]
	for i := range c.gp.leafSlots {
		ls := &c.gp.leafSlots[i]
		if len(ls.factors) == 0 {
			rl[i] = float64(hi - lo)
			continue
		}
		sum := 0.0
		switch {
		case ls.rowFn != nil && c.ids == nil:
			fn := ls.rowFn
			for r := lo; r < hi; r++ {
				sum += fn(r)
			}
		case ls.rowFn != nil:
			fn := ls.rowFn
			for r := lo; r < hi; r++ {
				sum += fn(int(c.ids[r]))
			}
		case c.ids == nil:
			for r := lo; r < hi; r++ {
				p := 1.0
				for j := range ls.factors {
					p *= ls.factors[j].Eval(ls.cols[j].Float(r))
				}
				sum += p
			}
		default:
			for r := lo; r < hi; r++ {
				p := 1.0
				for j := range ls.factors {
					p *= ls.factors[j].Eval(ls.cols[j].Float(int(c.ids[r])))
				}
				sum += p
			}
		}
		rl[i] = sum
	}
}

// emit flushes one emission group: the output row is resolved once per
// group-by context and per combination of carried-view entries. Which walk
// runs, and whether any entry is present, depends on the context alone. The
// check-free walk adds the group's runs when it has them (emitRuns), else
// its entries; the checked walk skips entries whose running sum is absent or
// whose prefix registers are unbound, and no row is created when no entry is
// present (a group-by key exists only for join tuples).
//
// lmfao:pre-publish
func (c *execCtx) emit(gi int) {
	g := &c.gp.emitGroups[gi]
	key := c.keyvals[:len(g.keySrc)]
	for i, ks := range g.keySrc {
		if ks.carried == -1 {
			key[i] = c.curVals[ks.depth]
		}
	}
	for _, in := range g.carriedInputs {
		if !c.bindOK[in] {
			return
		}
	}
	checked := c.unb[g.regDepth+1] != 0 || !c.full[g.regDepth+1]
	if checked && !c.anyPresent(g) {
		return
	}
	rs, reg, coef := c.R[g.regDepth+1], c.reg, g.coef
	if !checked && g.runs != nil {
		b := c.builders[g.view]
		vals := b.vd.Vals[int(b.row(key))*b.vd.Stride:]
		for _, r := range g.runs {
			v := vals[r.col:][:r.n]
			switch {
			case r.byReg:
				x := rs[r.sfx]
				for i, y := range reg[r.reg:][:r.n] {
					v[i] += x * y
				}
			case r.reg == 0:
				for i, x := range rs[r.sfx:][:r.n] {
					v[i] += x
				}
			default:
				y := reg[r.reg]
				for i, x := range rs[r.sfx:][:r.n] {
					v[i] += x * y
				}
			}
		}
		return
	}
	cols, sfx, pre, _ := g.arrays()
	n := len(coef)
	sfx = sfx[:n]
	if !checked && g.w == 2 && len(g.carriedInputs) == 0 {
		b := c.builders[g.view]
		row := int(b.row(key))
		vals := b.vd.Vals[row*b.vd.Stride:]
		p0, p1 := pre[:n], pre[n:][:n]
		for i, col := range cols {
			vals[col] += coef[i] * rs[sfx[i]] * reg[p0[i]] * reg[p1[i]]
		}
		return
	}
	// Each entry's product up to its carried values depends on the context
	// alone: computed once, then scaled per carried combination.
	vs := c.vbuf[:n]
	for i := range vs {
		v := coef[i] * rs[sfx[i]]
		for j := i; j < len(pre); j += n {
			v *= reg[pre[j]]
		}
		vs[i] = v
	}
	c.emitCarried(g, 0, key, checked)
}

// emitCarried enumerates entry combinations of the group's carried views
// (nested loops), filling carried key parts and entry rows, and adds the
// entries into the output row of each combination.
//
// lmfao:pre-publish
func (c *execCtx) emitCarried(g *emitGroup, ci int, key []int64, checked bool) {
	if ci == len(g.carriedInputs) {
		b := c.builders[g.view]
		row := int(b.row(key))
		vals := b.vd.Vals[row*b.vd.Stride:]
		n := len(g.coef)
		ccol := (2 + g.w) * n // prog offset of the carried value columns
		for i, v := range c.vbuf[:n] {
			if checked && !c.present(g, i) {
				continue
			}
			for j, in := range g.carriedInputs {
				vd := c.inViews[in]
				v *= vd.Vals[int(c.crow[j])*vd.Stride+int(g.prog[ccol+j*n+i])]
			}
			vals[g.prog[i]] += v
		}
		return
	}
	in := g.carriedInputs[ci]
	vd := c.inViews[in]
	for r := c.binds[in][0]; r < c.binds[in][1]; r++ {
		c.crow[ci] = r
		for i, ks := range g.keySrc {
			if ks.carried == ci {
				key[i] = vd.Keys[ks.extraCol][r]
			}
		}
		c.emitCarried(g, ci+1, key, checked)
	}
}

// present reports whether emission entry i of g contributes in the current
// context: its running sum is present and its prefix registers are bound.
func (c *execCtx) present(g *emitGroup, i int) bool {
	_, sfx, pre, _ := g.arrays()
	if !c.P[g.regDepth+1][sfx[i]] {
		return false
	}
	for j := i; j < len(pre); j += len(g.coef) {
		if !c.ok[pre[j]] {
			return false
		}
	}
	return true
}

func (c *execCtx) anyPresent(g *emitGroup) bool {
	for i := range g.coef {
		if c.present(g, i) {
			return true
		}
	}
	return false
}
