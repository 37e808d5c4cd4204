package moo

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/jointree"
)

// ErrNotIncremental marks deltas the maintenance layer cannot handle
// incrementally (e.g. relations absent from the join tree); callers should
// fall back to a full recompute.
var ErrNotIncremental = errors.New("moo: delta not incrementally maintainable")

// ApplyStats reports what one incremental maintenance pass did.
type ApplyStats struct {
	Relation string
	Inserted int
	Deleted  int
	// Bag names the materialized hypertree bag maintained in place of
	// Relation when the delta targeted a base relation folded into one ("");
	// the delta was expanded by joining it with the bag's other members.
	Bag string
	// DirtyGroups of TotalGroups were re-evaluated (over delta tuples at
	// the changed node, over the base relation with substituted delta
	// inputs elsewhere); DirtyViews of TotalViews were re-merged.
	DirtyGroups int
	TotalGroups int
	DirtyViews  int
	TotalViews  int
	// KernelGroups counts the dirty groups whose compiled maintenance kernel
	// ran a scan (a step no delta row flows into runs none). Of those at
	// unchanged nodes, IDScanGroups ran a restricted scan driven by a row-id
	// batch — semi-join probes resolved against the engine's persistent
	// sorted copy of the base, the matched positions walked through id
	// indirection — and FullScanGroups scanned the whole sorted copy.
	// At-delta groups are in neither.
	KernelGroups   int
	IDScanGroups   int
	FullScanGroups int
	// ScannedRows totals the base rows actually scanned at unchanged dirty
	// nodes; BaseRows what a full-scan maintenance pass would have scanned.
	ScannedRows int
	BaseRows    int
	// ScanElapsed covers delta evaluation (the per-step scans), MergeElapsed
	// folding the deltas into the cached views; Elapsed is the whole pass.
	ScanElapsed  time.Duration
	MergeElapsed time.Duration
	Elapsed      time.Duration
}

// Apply incrementally maintains a previous batch result against a delta that
// has ALREADY been applied to the base relation (use lmfao.Session for the
// combined mutate-and-maintain path). It re-evaluates only the dirty subset
// of the view DAG per internal/ivm's schedule and merges the deltas into the
// cached views, returning a new BatchResult; prev is left untouched.
//
// Every step runs through a compiled maintenance kernel (kernel.go), cached
// per (changed node, group). Where the schedule has a semi-join plan, scans
// at unchanged nodes cover only the base rows that join the delta's keys
// (found through data.KeyIndex indexes, built on first use and patched under
// later deltas) instead of the full relation.
//
// d took its base relation one version step, from the version prev
// reflects; the engine's sorted copies of the relation that reflect that
// version take d as well (patchCopies), so they stay current without a
// re-sort.
//
// A delta against a base relation folded into a materialized hypertree bag
// is expanded into the bag's delta (joined with the bag's other members) and
// maintained at the bag node; as a side effect the bag's materialized
// relation is brought in sync with its already-mutated member.
//
// The result must have been produced by an engine with Options.TrackCounts:
// the hidden per-view tuple counts are what make row deletion exact.
func (e *Engine) Apply(prev *BatchResult, d data.Delta) (*BatchResult, *ApplyStats, error) {
	start := time.Now()
	if prev == nil || prev.Plan == nil || prev.Materialized == nil {
		return nil, nil, fmt.Errorf("moo: Apply needs a cached BatchResult from Run")
	}
	plan := prev.Plan
	if plan.CountCol == nil {
		return nil, nil, fmt.Errorf("moo: Apply needs a plan built with TrackCounts (set Options.TrackCounts)")
	}
	stats := &ApplyStats{
		Relation:    d.Relation,
		Inserted:    d.InsertRows(),
		Deleted:     d.DeleteRows(),
		TotalGroups: len(plan.Groups),
		TotalViews:  len(plan.Views),
	}
	node := e.tree.NodeByRelation(d.Relation)
	if node == nil {
		bag := e.tree.NodeByMember(d.Relation)
		if bag == nil {
			return nil, nil, fmt.Errorf("%w: relation %q is not in the join tree", ErrNotIncremental, d.Relation)
		}
		expanded, err := e.foldBagDelta(bag, d)
		if err != nil {
			return nil, nil, err
		}
		node, d = bag, expanded
		stats.Bag = bag.Rel.Name
	} else if err := d.Validate(node.Rel); err != nil {
		return nil, nil, err
	} else if err := e.patchCopies(node.Rel, d, node.Rel.Version()-1); err != nil {
		return nil, nil, err
	}
	if d.Empty() {
		stats.Elapsed = time.Since(start)
		return prev, stats, nil
	}
	e.scopeCaches(plan)
	sched, err := ivm.Analyze(plan, node.ID)
	if err != nil {
		return nil, nil, err
	}
	stats.DirtyGroups = len(sched.Steps)
	stats.DirtyViews = len(sched.DirtyViews)

	var insRel, delRel *data.Relation
	if d.InsertRows() > 0 {
		insRel = data.NewRelation(d.Relation, node.Rel.Attrs, d.Inserts)
	}
	if d.DeleteRows() > 0 {
		delRel = data.NewRelation(d.Relation, node.Rel.Attrs, d.Deletes)
	}

	// work starts as the cached state; as steps complete, dirty views are
	// replaced by their deltas so later steps bind the delta views. Clean
	// inputs keep reading the cache (they are never dirty).
	scanStart := time.Now()
	work := append([]*ViewData(nil), prev.Materialized...)
	deltas := make([]*ViewData, len(plan.Views))
	// Shared across every kernel of this Apply round: sorted delta blocks and
	// semi-join row-id batches. Never outlives the round.
	sc := newScanCache(e)
	for _, st := range sched.Steps {
		kn, err := e.kernelFor(plan, node.ID, st)
		if err != nil {
			return nil, nil, err
		}
		if st.AtDelta {
			stats.KernelGroups++
			ins, del, err := kn.runDeltaScans(sc, work, insRel, delRel)
			if err != nil {
				return nil, nil, err
			}
			for _, vid := range st.Dirty {
				v := plan.Views[vid]
				deltas[vid] = diffViews(v, pickView(ins, vid), pickView(del, vid), viewTarget(plan, v))
			}
		} else {
			empty := true
			for _, in := range st.DeltaInputs {
				if deltas[in].NumRows() > 0 {
					empty = false
					break
				}
			}
			if empty {
				// Nothing flows in; the step's deltas are empty views.
				for _, vid := range st.Dirty {
					v := plan.Views[vid]
					deltas[vid] = newViewBuilder(v.GroupBy, len(v.Cols), false, nil).finalize(viewTarget(plan, v))
				}
			} else {
				scratch := append([]*ViewData(nil), work...)
				stepRel := e.tree.Nodes[st.Node].Rel
				stats.BaseRows += stepRel.Len()
				stats.KernelGroups++
				// Row-id-batched restricted scan when the semi-join plan
				// applies and the batch stays small, full scan of the cached
				// sorted base otherwise. The batch is shared across kernels
				// via sc.
				var se *subsetEntry
				if st.SemiJoinAttrs != nil {
					if se, err = sc.subsetFor(kn, stepRel, deltas); err != nil {
						return nil, nil, err
					}
				}
				if se != nil && !se.fallback {
					stats.IDScanGroups++
					stats.ScannedRows += se.total
					err = kn.runIDBatch(e, sc, scratch, stepRel, se)
				} else {
					stats.FullScanGroups++
					stats.ScannedRows += stepRel.Len()
					err = kn.runFull(e, scratch, stepRel)
				}
				if err != nil {
					return nil, nil, err
				}
				for _, vid := range st.Dirty {
					deltas[vid] = scratch[vid]
				}
			}
		}
		for _, vid := range st.Dirty {
			work[vid] = deltas[vid]
		}
	}
	stats.ScanElapsed = time.Since(scanStart)

	// Merge the deltas into a fresh materialized state.
	mergeStart := time.Now()
	mat := append([]*ViewData(nil), prev.Materialized...)
	for _, vid := range sched.DirtyViews {
		v := plan.Views[vid]
		keepScalar := v.IsOutput() && len(v.GroupBy) == 0
		mat[vid] = mergeDelta(prev.Materialized[vid], deltas[vid], plan.CountCol[vid], keepScalar)
	}
	stats.MergeElapsed = time.Since(mergeStart)
	res := &BatchResult{
		Plan:         plan,
		Materialized: mat,
		Versions:     sched.Commits,
	}
	if err := fillResults(plan, mat, res, prev.Results, deltas); err != nil {
		return nil, nil, err
	}
	for _, v := range plan.Views {
		if !v.IsOutput() && mat[v.ID] != nil {
			res.ViewBytes += mat[v.ID].SizeBytes()
		}
	}
	res.Elapsed = time.Since(start)
	stats.Elapsed = res.Elapsed
	return res, stats, nil
}

// SyncBagMember brings the engine's materialized hypertree bag in sync with
// a delta ALREADY applied to one of its member base relations; a no-op for
// relations that are join-tree nodes themselves (or absent from the tree).
// Engine.Apply folds bags as part of maintenance — this entry point exists
// for callers that mutate base data without maintaining a cached result
// (e.g. lmfao.Session before its first Run), where skipping the fold would
// leave the bag stale and later full runs silently wrong.
func (e *Engine) SyncBagMember(d data.Delta) error {
	if d.Empty() || e.tree.NodeByRelation(d.Relation) != nil {
		return nil
	}
	bag := e.tree.NodeByMember(d.Relation)
	if bag == nil {
		return nil
	}
	_, err := e.foldBagDelta(bag, d)
	return err
}

// foldBagDelta expands a member delta into the bag's delta and folds it into
// the bag's materialized relation and the engine's sorted copies of it,
// keeping them mirroring the natural join of its (already-mutated) members.
// Returns the expanded delta for maintenance.
func (e *Engine) foldBagDelta(bag *jointree.Node, d data.Delta) (data.Delta, error) {
	expanded, err := e.expandBagDelta(bag, d)
	if err != nil {
		return data.Delta{}, err
	}
	from := bag.Rel.Version()
	if err := bag.Rel.ApplyDelta(expanded); err != nil {
		return data.Delta{}, fmt.Errorf("moo: bag %q out of sync with member %q: %w",
			bag.Rel.Name, d.Relation, err)
	}
	// The bag relation lives only in the join tree: its sorted copies are
	// the engine's own, brought forward with the expanded delta.
	if err := e.patchCopies(bag.Rel, expanded, from); err != nil {
		return data.Delta{}, err
	}
	return expanded, nil
}

// expandBagDelta translates a delta against a base relation folded into a
// materialized bag into the bag's own delta: with only Ri changed (one
// relation per Delta by contract), Δ(R1 ⋈ … ⋈ Rk) = ΔRi ⋈ Π_{j≠i} Rj, for
// inserts and deletes alike (deletes are negative-weight inserts). The
// sibling members are read at their current state; ΔRi itself was already
// applied to Ri by the caller, and Ri does not participate in the join.
func (e *Engine) expandBagDelta(bag *jointree.Node, d data.Delta) (data.Delta, error) {
	member := e.db.Relation(d.Relation)
	if member == nil {
		return data.Delta{}, fmt.Errorf("moo: delta against unknown relation %q", d.Relation)
	}
	if err := d.Validate(member); err != nil {
		return data.Delta{}, err
	}
	var siblings []*data.Relation
	for _, name := range bag.Members {
		if name == d.Relation {
			continue
		}
		rel := e.db.Relation(name)
		if rel == nil {
			return data.Delta{}, fmt.Errorf("moo: bag %q member %q not in database", bag.Rel.Name, name)
		}
		siblings = append(siblings, rel)
	}
	out := data.Delta{Relation: bag.Rel.Name}
	var err error
	if d.InsertRows() > 0 {
		if out.Inserts, err = e.joinBlock(bag, member, d.Inserts, siblings); err != nil {
			return data.Delta{}, err
		}
	}
	if d.DeleteRows() > 0 {
		if out.Deletes, err = e.joinBlock(bag, member, d.Deletes, siblings); err != nil {
			return data.Delta{}, err
		}
	}
	return out, nil
}

// joinBlock natural-joins one member's tuple block with the bag's other
// members and projects the result into the bag relation's schema order.
// Members are joined greedily by shared-attribute count, mirroring how the
// bag itself was merged, so every intermediate join has a key whenever one
// exists (an empty intersection degrades to the cross product, which is the
// natural-join semantics for disjoint schemas).
func (e *Engine) joinBlock(bag *jointree.Node, member *data.Relation, block []data.Column, siblings []*data.Relation) ([]data.Column, error) {
	acc := data.NewRelation(member.Name, member.Attrs, block)
	remaining := append([]*data.Relation(nil), siblings...)
	for len(remaining) > 0 {
		best, overlap := 0, -1
		for i, r := range remaining {
			w := countSharedAttrs(acc.Attrs, r.Attrs)
			if w > overlap {
				best, overlap = i, w
			}
		}
		next := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var err error
		acc, err = jointree.NaturalJoin(e.db, acc, next, "Δ"+bag.Rel.Name)
		if err != nil {
			return nil, err
		}
	}
	cols := make([]data.Column, len(bag.Rel.Attrs))
	for i, a := range bag.Rel.Attrs {
		c, ok := acc.Col(a)
		if !ok {
			return nil, fmt.Errorf("moo: bag %q attribute %d missing from expanded delta", bag.Rel.Name, a)
		}
		cols[i] = c
	}
	return cols, nil
}

func countSharedAttrs(a, b []data.AttrID) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}

func pickView(vs []*ViewData, vid int) *ViewData {
	if vs == nil {
		return nil
	}
	return vs[vid]
}

// viewTarget returns the consumer node schema finalize needs (nil for
// application outputs).
func viewTarget(plan *core.Plan, v *core.View) []data.AttrID {
	if v.IsOutput() {
		return nil
	}
	return plan.Tree.Nodes[v.To].Attrs
}

// diffViews combines the insert-scan and delete-scan results of one view
// into its delta: deletes are negative-weight inserts in the sum-product
// semiring.
func diffViews(v *core.View, ins, del *ViewData, target []data.AttrID) *ViewData {
	b := newViewBuilder(v.GroupBy, len(v.Cols), false, nil)
	addViewInto(b, ins, 1)
	addViewInto(b, del, -1)
	return b.finalize(target)
}

// mergeDelta folds a view's delta into its cached data by one linear merge
// of the two identically sorted row sets, galloping over the untouched old
// rows between delta keys. Rows whose tuple count reaches zero are dropped:
// every join tuple behind the key was deleted, so a full recompute would not
// emit it. Counts are integer-valued, so the float64 zero test is exact.
// Scalar application outputs always keep their single row (SQL semantics).
// The aggregates start as a copy of the old ones (no zero-fill) that delta
// rows add into in place, sharing the cached key columns, until the first
// insert or drop truncates the copy there; old runs are appended after it.
// A merge that keeps old's row set shares old's row directory too; any
// other derives its own from old's, or indexes its rows afresh when an
// insert falls outside old's directory box.
//
// lmfao:pre-publish — every write lands in the fresh out view; old and
// delta are only read.
func mergeDelta(old, delta *ViewData, countCol int, keepScalar bool) *ViewData {
	if delta == nil || delta.rows == 0 {
		return old
	}
	out := &ViewData{
		GroupBy: old.GroupBy,
		Keys:    old.Keys,
		Vals:    slices.Clone(old.Vals),
		Stride:  old.Stride,
		order:   old.order,
		nskey:   old.nskey,
		box:     unionBox(old.box, delta.box),
	}
	shared := true // no row inserted or dropped yet: out.Keys aliases old.Keys, out.Vals is whole
	unshare := func() {
		if !shared {
			return
		}
		shared = false
		out.Keys = make([][]int64, len(old.Keys))
		for c := range out.Keys {
			out.Keys[c] = append(make([]int64, 0, old.rows+delta.rows), old.Keys[c][:out.rows]...)
		}
		out.Vals = out.Vals[:out.rows*out.Stride]
	}
	copyRun := func(lo, hi int) {
		if !shared {
			for c := range out.Keys {
				out.Keys[c] = append(out.Keys[c], old.Keys[c][lo:hi]...)
			}
			out.Vals = append(out.Vals, old.Vals[lo*old.Stride:hi*old.Stride]...)
		}
		out.rows += hi - lo
	}
	// While every insert falls in old's directory box, out's directory is
	// old's shifted: start[s] moves by the rows inserted less the rows
	// dropped in slots below s. Rows arrive in slot order, so one pass
	// fills it; dir[:next] is final.
	var dir []int32
	derive, next, shift := old.dir != nil, 0, int32(0)
	moved := func(key []int64, d int32) {
		if !derive {
			return
		}
		s, in := old.dir.slot(key[:old.nskey])
		if !in {
			derive = false
			return
		}
		if dir == nil {
			dir = make([]int32, len(old.dir.start))
		}
		for ; next <= s; next++ {
			dir[next] = old.dir.start[next] + shift
		}
		shift += d
	}
	key := make([]int64, len(old.order)) // delta row j in sort order
	i := 0
	for j := 0; j < delta.rows; j++ {
		for jj, p := range old.order {
			key[jj] = delta.Keys[p][j]
		}
		// Group-by keys are unique per view, so at most one old row matches.
		k := old.gallop(i, key, 0)
		copyRun(i, k)
		i = k
		hit := i < old.rows && old.cmpPrefix(i, key) == 0
		count := delta.Val(j, countCol)
		if hit {
			count += old.Val(i, countCol)
		}
		if count == 0 && !keepScalar {
			if hit {
				unshare()
				moved(key, -1)
				i++
			}
			continue
		}
		if hit {
			copyRun(i, i+1)
			i++
		} else {
			unshare()
			moved(key, 1)
			for c := range out.Keys {
				out.Keys[c] = append(out.Keys[c], delta.Keys[c][j])
			}
			out.Vals = append(out.Vals, make([]float64, out.Stride)...)
			out.rows++
		}
		dst := out.Vals[(out.rows-1)*out.Stride : out.rows*out.Stride]
		for c, x := range delta.Vals[j*delta.Stride : (j+1)*delta.Stride] {
			dst[c] += x
		}
	}
	copyRun(i, old.rows)
	switch {
	case shared:
		out.dir = old.dir // same rows, same keys: old's slots still hold
	case derive && 4*int64(len(dir)) <= out.SizeBytes():
		for ; next < len(dir); next++ {
			dir[next] = old.dir.start[next] + shift
		}
		out.dir = &rowDir{cols: old.dir.cols, start: dir}
	default:
		out.index()
	}
	return out
}
