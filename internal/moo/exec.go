package moo

import (
	"fmt"

	"repro/internal/data"
)

// execCtx holds the per-thread mutable state of one multi-output scan.
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

	curVals    []int64     // bound order-attribute values
	slotVals   [][]float64 // [d][slot]
	slotOK     [][]bool
	globalVals []float64
	globalOK   []bool
	binds      [][2]int32 // per input: current entry range
	bindOK     []bool
	bindKey    []int64 // consumer-key values of the bind in progress

	// R[d][sid] are the running sums (paper's r_d); R[L] aliases the leaf
	// slot values. P is the parallel join-presence flag: a group-by key
	// exists in an output only if a join tuple exists for it, even when
	// every aggregate value is zero.
	R [][]float64
	P [][]bool

	builders   []*viewBuilder
	keyvals    []int64
	carriedRow []int32 // current entry row per carried input during emission
}

func newExecCtx(gp *groupPlan, produced []*ViewData, scalarInit bool) (*execCtx, error) {
	c := &execCtx{gp: gp}
	c.inViews = make([]*ViewData, len(gp.inputs))
	for i, in := range gp.inputs {
		vd := produced[in.id]
		if vd == nil {
			return nil, fmt.Errorf("moo: input view %d of group %d not yet produced", in.id, gp.group.ID)
		}
		c.inViews[i] = vd
	}
	c.orderCols = make([][]int64, gp.L)
	for d, a := range gp.order {
		c.orderCols[d] = gp.rel.MustCol(a).Ints
	}
	c.curVals = make([]int64, gp.L)
	c.slotVals = make([][]float64, gp.L)
	c.slotOK = make([][]bool, gp.L)
	for d := 0; d < gp.L; d++ {
		c.slotVals[d] = make([]float64, len(gp.depthSlots[d]))
		c.slotOK[d] = make([]bool, len(gp.depthSlots[d]))
	}
	c.globalVals = make([]float64, len(gp.globalSlots))
	c.globalOK = make([]bool, len(gp.globalSlots))
	c.binds = make([][2]int32, len(gp.inputs))
	c.bindOK = make([]bool, len(gp.inputs))
	c.R = make([][]float64, gp.L+1)
	c.P = make([][]bool, gp.L+1)
	for d := 0; d <= gp.L; d++ {
		c.R[d] = make([]float64, gp.numSuffix(d))
		c.P[d] = make([]bool, gp.numSuffix(d))
	}
	for i := range c.P[gp.L] {
		c.P[gp.L][i] = true // leaf presence: reached ⇒ rows exist
	}
	maxKey := 0
	for _, v := range gp.views {
		if len(v.GroupBy) > maxKey {
			maxKey = len(v.GroupBy)
		}
	}
	c.keyvals = make([]int64, maxKey)
	c.bindKey = make([]int64, gp.L)
	c.carriedRow = make([]int32, len(gp.inputs))
	c.builders = make([]*viewBuilder, len(gp.views))
	for i, v := range gp.views {
		c.builders[i] = newViewBuilder(v.GroupBy, len(v.Cols), scalarInit && v.IsOutput())
	}
	return c, nil
}

// reset rebinds the context for another execution of the same group plan —
// the kernel path's alternative to reallocating a context per Apply. Input
// views and order columns are re-resolved (the plan-shape-dependent slot,
// running-sum and bind arrays keep their storage: scan re-zeroes R/P levels
// on entry and rebinds inputs before any read), builders start fresh, and
// the id indirection is cleared until the caller installs one.
func (c *execCtx) reset(produced []*ViewData, scalarInit bool) error {
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
	for i, v := range gp.views {
		c.builders[i] = newViewBuilder(v.GroupBy, len(v.Cols), scalarInit && v.IsOutput())
	}
	return nil
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
	rd, pd := c.R[d], c.P[d]
	for i := range rd {
		rd[i] = 0
		pd[i] = false
	}
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
		// Accumulate running sums (paper's r_d updates). The suffix table
		// is scanned as one tight loop over contiguous arrays — the
		// aggregate-array organization of the paper's generated code.
		rn, pn := c.R[d+1], c.P[d+1]
		sv, so := c.slotVals[d], c.slotOK[d]
		tab := &gp.sfxTabs[d]
		for sid := range tab.next {
			nx := tab.next[sid]
			if !pn[nx] {
				continue
			}
			lo2, hi2 := tab.slotOff[sid], tab.slotOff[sid+1]
			prod := 1.0
			ok := true
			for _, s := range tab.slots[lo2:hi2] {
				if !so[s] {
					ok = false
					break
				}
				prod *= sv[s]
			}
			if ok {
				rd[sid] += prod * rn[nx]
				pd[sid] = true
			}
		}
		lo = end
	}
}

// bindInput resolves the entry range of input ii for the currently bound
// consumer-key values: a binary search over the input view's sorted
// consumer-key columns.
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

// computeSlots evaluates the slot values at depth d (or the global slots for
// d == -1).
func (c *execCtx) computeSlots(d int) {
	var specs []slotSpec
	var vals []float64
	var oks []bool
	if d == -1 {
		specs, vals, oks = c.gp.globalSlots, c.globalVals, c.globalOK
	} else {
		specs, vals, oks = c.gp.depthSlots[d], c.slotVals[d], c.slotOK[d]
	}
	for i := range specs {
		s := &specs[i]
		switch s.kind {
		case localSlot:
			x := float64(c.curVals[d])
			var p float64
			if s.fn != nil {
				p = s.fn(x)
			} else {
				p = 1.0
				for _, f := range s.factors {
					p *= f.Eval(x)
				}
			}
			vals[i], oks[i] = p, true
		case lookupSlot:
			if !c.bindOK[s.input] {
				oks[i] = false
				continue
			}
			vd := c.inViews[s.input]
			vals[i] = vd.Vals[int(c.binds[s.input][0])*vd.Stride+s.col]
			oks[i] = true
		}
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

// emitValue computes one aggregate contribution (coef × prefix slots ×
// running sum); ok is false when a referenced view is absent for this
// context.
func (c *execCtx) emitValue(e *groupEmit, regDepth int) (float64, bool) {
	if !c.P[regDepth+1][e.suffix] {
		return 0, false
	}
	val := e.coef * c.R[regDepth+1][e.suffix]
	for _, pr := range e.prefix {
		if pr.depth == -1 {
			if !c.globalOK[pr.idx] {
				return 0, false
			}
			val *= c.globalVals[pr.idx]
		} else {
			if !c.slotOK[pr.depth][pr.idx] {
				return 0, false
			}
			val *= c.slotVals[pr.depth][pr.idx]
		}
	}
	return val, true
}

// emit flushes one emission group: the output row is resolved once per
// group-by context (lazily, so contexts where every aggregate's views are
// absent add no row) and all aggregate columns are written sequentially.
func (c *execCtx) emit(gi int) {
	gp := c.gp
	g := &gp.emitGroups[gi]
	b := c.builders[g.view]
	key := c.keyvals[:len(g.keySrc)]
	for i, ks := range g.keySrc {
		if ks.carried == -1 {
			key[i] = c.curVals[ks.depth]
		}
	}
	if len(g.carriedInputs) == 0 {
		row := int32(-1)
		for i := range g.emits {
			e := &g.emits[i]
			val, ok := c.emitValue(e, g.regDepth)
			if !ok {
				continue
			}
			if row < 0 {
				row = b.row(key)
			}
			b.add(row, e.col, val)
		}
		return
	}
	for _, in := range g.carriedInputs {
		if !c.bindOK[in] {
			return
		}
	}
	c.emitCarried(g, 0, key, b)
}

// emitCarried enumerates entry combinations of the group's carried views
// (nested loops), filling carried key parts; at each combination every
// aggregate multiplies its own carried value columns.
func (c *execCtx) emitCarried(g *emitGroup, ci int, key []int64, b *viewBuilder) {
	if ci == len(g.carriedInputs) {
		row := int32(-1)
		for i := range g.emits {
			e := &g.emits[i]
			val, ok := c.emitValue(e, g.regDepth)
			if !ok {
				continue
			}
			for cj, in := range g.carriedInputs {
				vd := c.inViews[in]
				val *= vd.Vals[int(c.carriedRow[cj])*vd.Stride+e.carriedCols[cj]]
			}
			if row < 0 {
				row = b.row(key)
			}
			b.add(row, e.col, val)
		}
		return
	}
	in := g.carriedInputs[ci]
	vd := c.inViews[in]
	lo, hi := c.binds[in][0], c.binds[in][1]
	for r := lo; r < hi; r++ {
		c.carriedRow[ci] = r
		for i, ks := range g.keySrc {
			if ks.carried == ci {
				key[i] = vd.Keys[ks.extraCol][r]
			}
		}
		c.emitCarried(g, ci+1, key, b)
	}
}
