package moo

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
)

// Compiled maintenance kernels: the only way Engine.Apply scans. Each kernel
// specializes one ivm schedule step: the step's multi-output group loop is
// compiled once, its semi-join probe positions are resolved once against the
// plan's view metadata, and a reusable execution context keeps the scan's
// slot/running-sum arrays and the composed leaf closures alive across Apply
// calls. Kernels are cached per engine, keyed by (changed node, group) and
// scoped to the one plan being maintained (Engine.scopeCaches): ivm.Analyze
// is a pure function of (plan, changed node), so the key determines the step
// and a cache hit always returns a kernel compiled for it.
//
// Restricted scans run row-id-batched: the semi-join candidate row ids are
// gathered once per (relation, probe set) and shared across every kernel of
// the Apply round through a scanCache. A probe set is integer key columns:
// each delta view's distinct keys on its semi-join attributes, projected,
// sorted and deduplicated once per round (keySet). Each kernel resolves the
// set against the join-key index of the engine's persistent per-order sorted
// copy of the base, by one galloping walk per key list, and walks the
// matched positions ascending through the id indirection (execCtx.ids): a
// restricted scan over an unchanged base costs one integer sort, never a
// gather, stable sort or subset copy, and builds no string. Sorted copies
// of large at-delta tuple blocks are shared per scan order the same way;
// small blocks run the indirection against the unsorted block directly.
//
// Every strategy visits rows in the same stable order as a scan of the whole
// sorted relation — selecting a subset of a stably sorted sequence preserves
// the ascending-id order within equal keys — and the rows it skips bind no
// delta input, so a restricted Apply accumulates every output bit exactly as
// recomputing the plan on the mutated base does (internal/oracletest).

// maintKernel is the compiled kernel for one maintenance step. It carries
// mutable scan state (bound relation, execution context, id buffer) and is
// therefore bound to the engine's single-writer Apply path.
type maintKernel struct {
	gp *groupPlan
	st ivm.Step
	// probePos[i] holds, for delta input st.DeltaInputs[i], the positions of
	// the semi-join probe attributes in that view's group-by — resolved at
	// compile time from the logical plan instead of per Apply; attrIDs[i] is
	// those attributes' interned id (Engine.orderID), by which probe sets
	// order and compare their key lists.
	probePos [][]int
	attrIDs  []int

	// boundRel/boundVer pin the relation the leaf closures were composed
	// against; rebinding only happens when the scan target changes. For
	// unchanged-node steps over a stable base relation the composition
	// happens exactly once across the whole delta stream.
	boundRel *data.Relation
	boundVer int64
	ctxs     []*execCtx // the morsel contexts of runFull; runBound uses ctxs[0]
	idbuf    []int32
}

// kernelKey identifies a cached kernel: the join-tree node the delta changed
// and the plan group the step recomputes.
type kernelKey struct {
	changed, group int
}

// kernelFor returns the compiled kernel for step st of the schedule for a
// delta at node changed, compiling and caching it on first use.
func (e *Engine) kernelFor(plan *core.Plan, changed int, st ivm.Step) (*maintKernel, error) {
	key := kernelKey{changed: changed, group: st.Group}
	e.mu.Lock()
	k, ok := e.kernels[key]
	if ok {
		e.kernelHits++
	} else {
		e.kernelMisses++
	}
	e.mu.Unlock()
	if ok {
		return k, nil
	}
	sub := &core.Group{ID: st.Group, Node: st.Node, Views: st.Dirty}
	gp, err := compileGroup(plan, sub, e.opts.Compiled)
	if err != nil {
		return nil, err
	}
	k = &maintKernel{gp: gp, st: st}
	if st.SemiJoinAttrs != nil {
		k.probePos = make([][]int, len(st.DeltaInputs))
		k.attrIDs = make([]int, len(st.DeltaInputs))
		for i, in := range st.DeltaInputs {
			attrs := st.SemiJoinAttrs[i]
			k.attrIDs[i] = e.orderID(attrs)
			groupBy := plan.Views[in].GroupBy
			pos := make([]int, len(attrs))
			for j, a := range attrs {
				p := -1
				for gi, g := range groupBy {
					if g == a {
						p = gi
						break
					}
				}
				if p < 0 {
					return nil, fmt.Errorf("moo: delta view %d lacks semi-join attribute %d", in, a)
				}
				pos[j] = p
			}
			k.probePos[i] = pos
		}
	}
	e.mu.Lock()
	e.kernels[key] = k
	e.mu.Unlock()
	return k, nil
}

// bind points the kernel at a scan relation, recomposing the leaf closures
// only when the target (or its content version) changed since the last run.
func (k *maintKernel) bind(rel *data.Relation) {
	ver := rel.Version()
	if k.boundRel == rel && k.boundVer == ver {
		return
	}
	k.gp.rel = rel
	k.gp.resolveLeafCols()
	k.boundRel, k.boundVer = rel, ver
}

// runBound executes the bound kernel over n rows (or over ids, when
// non-nil), finalizing the dirty views into produced. The execution context
// is reused across calls; builders start fresh each run.
func (k *maintKernel) runBound(produced []*ViewData, ids []int32, n int) error {
	if ids != nil {
		n = len(ids)
	}
	dense, wins := k.gp.layouts(produced, ids, []int{0, n})
	if k.ctxs == nil {
		k.ctxs = []*execCtx{newExecCtx(k.gp)}
	}
	c := k.ctxs[0]
	if err := c.bind(produced); err != nil {
		return err
	}
	c.newBuilders(false, dense, wins[0])
	c.ids = ids
	c.run(0, n)
	k.gp.finalize(produced, c.builders)
	return nil
}

// idScanMaxRows bounds the pure-indirection scan of at-delta tuple blocks:
// blocks up to this size are walked through execCtx.ids against the unsorted
// block (no copies); larger blocks take a per-order sorted copy shared
// through the scanCache. Both strategies visit rows in the same order, so
// the cutoff is purely a performance trade: indirection saves the copy,
// sequential access wins once the aggregate-heavy inner loops re-read
// columns many times.
const idScanMaxRows = 256

// scanCache shares scan materializations across the kernels of one Apply
// round: sorted copies of delta tuple blocks (per scan order), the probe
// keys of each delta view (per semi-join attribute list) and semi-join
// row-id batches (per relation and probe set). Sharing them across the
// groups of a multi-group plan is where kernel compilation pays. The cache
// lives for a single Apply call on the engine's single-writer path — entries
// never survive a base-relation mutation.
//
// The maps are keyed by comparable structs (pointers, interned ids), and a
// subset is found by comparing probe sets' key lists, so a hit allocates
// nothing.
type scanCache struct {
	e      *Engine
	sorted map[sortKey]*data.Relation
	keys   map[keysKey]*keySet
	// subsets lists each relation's row-id batches, found by probe set.
	subsets map[*data.Relation][]*subsetEntry
	// positions memoizes a subset's sorted scan positions per (subset,
	// sorted copy): kernels at the same node share one scan order, so the
	// probe resolution and integer sort run once, not per group.
	positions map[positionsKey][]int32
	probeBuf  []*keySet // probeSet's scratch
}

// keysKey identifies a delta view's probe keys on one attribute list.
type keysKey struct {
	view  *ViewData
	attrs int // interned attribute list (Engine.orderID)
}

// positionsKey identifies a batch's resolved scan positions on one sorted
// copy.
type positionsKey struct {
	se     *subsetEntry
	sorted *data.Relation
}

func newScanCache(e *Engine) *scanCache {
	return &scanCache{
		e:         e,
		sorted:    map[sortKey]*data.Relation{},
		keys:      map[keysKey]*keySet{},
		subsets:   map[*data.Relation][]*subsetEntry{},
		positions: map[positionsKey][]int32{},
	}
}

// sortedBlock memoizes rel.SortedCopy(order) per (relation, order) so kernels
// with the same scan order share one stable sort.
func (sc *scanCache) sortedBlock(rel *data.Relation, order []data.AttrID) (*data.Relation, error) {
	key := sortKey{rel: rel, order: sc.e.orderID(order)}
	if s, ok := sc.sorted[key]; ok {
		return s, nil
	}
	s, err := rel.SortedCopy(order)
	if err != nil {
		return nil, err
	}
	sc.sorted[key] = s
	return s, nil
}

// subsetEntry is one shared semi-join row-id batch, kept in probe form: the
// key lists that select the subset, plus the matched row total. Consumers
// resolve the probes against the join-key index of whichever sorted copy
// they scan, so the entry itself is scan-order agnostic.
type subsetEntry struct {
	probes   []*keySet
	total    int  // matched rows across probes (before cross-signature dedup)
	fallback bool // subset covers most of the relation: callers full-scan
}

// keySet is one key list of a probe set: distinct key tuples over attrs,
// ascending, one column per attribute (tuple t is keys[0][t], keys[1][t],
// …) — the form data.KeyIndex walks.
type keySet struct {
	attrs []data.AttrID
	id    int // attrs interned (Engine.orderID)
	keys  [][]int64
}

// equal reports whether two key lists hold the same tuples over the same
// attributes.
func (ks *keySet) equal(o *keySet) bool {
	return ks == o || ks.id == o.id && slices.EqualFunc(ks.keys, o.keys, slices.Equal[[]int64])
}

// probeKeys projects dv's rows onto the group-by positions pos and returns
// the distinct tuples ascending. When pos is a prefix of dv's sort order the
// projection is already sorted.
func probeKeys(dv *ViewData, pos []int) [][]int64 {
	src := make([][]int64, len(pos))
	for j, p := range pos {
		src[j] = dv.Keys[p]
	}
	return distinctTuples(src, len(pos) <= len(dv.order) && slices.Equal(pos, dv.order[:len(pos)]))
}

// distinctTuples returns the distinct tuples of the columns cols ascending,
// in fresh columns. Unless sorted says they already ascend (up to
// duplicates), they are sorted by data.SortIDs; duplicates are then
// adjacent and dropped.
func distinctTuples(cols [][]int64, sorted bool) [][]int64 {
	n := len(cols[0])
	var ids []int32
	if !sorted {
		ids = make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		data.SortIDs(ids, cols)
	}
	out := make([][]int64, len(cols))
	for j := range out {
		out[j] = make([]int64, 0, n)
	}
	for i := 0; i < n; i++ {
		r := i
		if ids != nil {
			r = int(ids[i])
		}
		if i > 0 && sameTuple(cols, r, out) {
			continue
		}
		for j, c := range cols {
			out[j] = append(out[j], c[r])
		}
	}
	return out
}

// sameTuple reports whether row r of cols equals the last tuple of out.
func sameTuple(cols [][]int64, r int, out [][]int64) bool {
	for j, c := range cols {
		if c[r] != out[j][len(out[j])-1] {
			return false
		}
	}
	return true
}

// unionKeys returns the union of two key lists over the same attributes.
func unionKeys(a, b *keySet) *keySet {
	if a.equal(b) {
		return a
	}
	cat := make([][]int64, len(a.keys))
	for j, c := range a.keys {
		cat[j] = append(slices.Clip(c), b.keys[j]...)
	}
	return &keySet{attrs: a.attrs, id: a.id, keys: distinctTuples(cat, false)}
}

// probeSet returns the key lists k's step probes with against the current
// delta views: one per semi-join attribute list, in interned-id order, where
// delta inputs over the same attributes contribute the union of their keys.
// Each delta view's keys are built on the round's first request for them.
// The subset a step scans is fully determined by (relation, probe set), so
// steps whose delta views carry the same join keys — the common case, since
// every dirty view at a node derives from the same base delta — share one
// gathered subset regardless of which views they consume. The returned
// slice is scratch, valid until the next call.
func (sc *scanCache) probeSet(k *maintKernel, deltas []*ViewData) []*keySet {
	ps := sc.probeBuf[:0]
	for i, in := range k.st.DeltaInputs {
		dv := deltas[in]
		if dv == nil || dv.NumRows() == 0 {
			continue
		}
		key := keysKey{view: dv, attrs: k.attrIDs[i]}
		ks, ok := sc.keys[key]
		if !ok {
			ks = &keySet{attrs: k.st.SemiJoinAttrs[i], id: k.attrIDs[i], keys: probeKeys(dv, k.probePos[i])}
			sc.keys[key] = ks
		}
		ps = append(ps, ks)
	}
	slices.SortStableFunc(ps, func(a, b *keySet) int { return a.id - b.id })
	out := ps[:0]
	for _, ks := range ps {
		if n := len(out); n > 0 && out[n-1].id == ks.id {
			out[n-1] = unionKeys(out[n-1], ks)
			continue
		}
		out = append(out, ks)
	}
	sc.probeBuf = out
	return out
}

// subsetFor resolves the shared row-id batch for k's step against rel,
// probing the join-key index only on the first request per probe set. The
// probes are sized against the persistent sorted copy k scans — the same
// rows as rel, whose indexes the restricted scan uses anyway — so the base
// relation needs no join-key index of its own.
func (sc *scanCache) subsetFor(k *maintKernel, rel *data.Relation, deltas []*ViewData) (*subsetEntry, error) {
	probes := sc.probeSet(k, deltas)
	for _, se := range sc.subsets[rel] {
		if slices.EqualFunc(se.probes, probes, (*keySet).equal) {
			return se, nil
		}
	}
	sorted, err := sc.e.sortedRel(rel, k.gp.order)
	if err != nil {
		return nil, err
	}
	se, err := gatherIDs(sorted, slices.Clone(probes))
	if err != nil {
		return nil, err
	}
	sc.subsets[rel] = append(sc.subsets[rel], se)
	return se, nil
}

// runIDs is the indirect row-id scan: ids (already arranged in the group's
// scan order for rel) are walked trie-style through execCtx.ids — no subset
// is gathered or copied.
func (k *maintKernel) runIDs(produced []*ViewData, rel *data.Relation, ids []int32) error {
	k.bind(rel)
	return k.runBound(produced, ids, 0)
}

// runIDBatch executes the restricted scan over a shared row-id batch against
// the engine's persistent sorted copy of the base: each key list of the
// batch resolves, by one galloping walk, against the sorted copy's own
// join-key index (persistent and patched under deltas, like the copy;
// positional when the probe attributes lead the scan order) to scan
// positions, which one integer sort plus a dedup pass put in scan order — no per-delta gather, stable sort or
// subset copy. Selecting a subset of a stably sorted sequence preserves its
// relative order, so the retained rows are visited exactly as a full scan of
// the sorted copy would visit them.
func (k *maintKernel) runIDBatch(e *Engine, sc *scanCache, produced []*ViewData, rel *data.Relation, se *subsetEntry) error {
	sorted, err := e.sortedRel(rel, k.gp.order)
	if err != nil {
		return err
	}
	key := positionsKey{se: se, sorted: sorted}
	pos, ok := sc.positions[key]
	if !ok {
		pos = make([]int32, 0, se.total)
		for _, p := range se.probes {
			ix, err := sorted.KeyIndex(p.attrs)
			if err != nil {
				return err
			}
			pos = ix.AppendRows(pos, p.keys)
		}
		slices.Sort(pos)
		// Probes with distinct attr signatures can match the same row; the
		// scan must visit it once.
		uniq := pos[:0]
		for i, r := range pos {
			if i == 0 || r != uniq[len(uniq)-1] {
				uniq = append(uniq, r)
			}
		}
		pos = uniq
		sc.positions[key] = pos
	}
	return k.runIDs(produced, sorted, pos)
}

// runFull is the unrestricted fallback, scanning the engine's cached sorted
// copy of the base relation in morsels, like Run's own scans, through the
// kernel's reused morsel contexts, while it holds a busy slot.
func (k *maintKernel) runFull(e *Engine, produced []*ViewData, base *data.Relation) error {
	sorted, err := e.sortedRel(base, k.gp.order)
	if err != nil {
		return err
	}
	k.bind(sorted)
	e.busy <- struct{}{}
	builders, err := e.scanMorsels(k.gp, produced, &k.ctxs, false)
	<-e.busy
	if err != nil {
		return err
	}
	k.gp.finalize(produced, builders)
	return nil
}

// runDeltaScans evaluates the at-delta kernel over the inserted and deleted
// tuple blocks (either may be nil) against cached input views.
func (k *maintKernel) runDeltaScans(sc *scanCache, work []*ViewData, insRel, delRel *data.Relation) (ins, del []*ViewData, err error) {
	if insRel != nil {
		ins = append([]*ViewData(nil), work...)
		if err := k.runDeltaBlock(sc, ins, insRel); err != nil {
			return nil, nil, err
		}
	}
	if delRel != nil {
		del = append([]*ViewData(nil), work...)
		if err := k.runDeltaBlock(sc, del, delRel); err != nil {
			return nil, nil, err
		}
	}
	return ins, del, nil
}

// runDeltaBlock scans one delta tuple block. Small blocks run through an
// identity id permutation stably sorted by the attribute order — the same
// row sequence a sorted copy would yield, without the copy; larger blocks
// share a per-order sorted copy with every other kernel at the changed node.
func (k *maintKernel) runDeltaBlock(sc *scanCache, produced []*ViewData, rel *data.Relation) error {
	n := rel.Len()
	if n <= idScanMaxRows {
		ids := k.idbuf[:0]
		for i := 0; i < n; i++ {
			ids = append(ids, int32(i))
		}
		k.idbuf = ids
		if err := rel.SortIDsBy(k.gp.order, ids); err != nil {
			return err
		}
		return k.runIDs(produced, rel, ids)
	}
	sorted, err := sc.sortedBlock(rel, k.gp.order)
	if err != nil {
		return err
	}
	k.bind(sorted)
	return k.runBound(produced, nil, sorted.Len())
}

// gatherIDs sizes the probe set against rel's join-key indexes and decides
// between the restricted and full-scan strategy. No row ids are materialized
// here: consumers resolve the probes against the sorted copy they scan
// (runIDBatch), whose key indexes persist across Apply calls. fallback is
// set when the subset would cover more than half of the relation (counting
// pre-dedup matches): callers should full-scan instead.
func gatherIDs(rel *data.Relation, probes []*keySet) (*subsetEntry, error) {
	total := 0
	for _, p := range probes {
		ix, err := rel.KeyIndex(p.attrs)
		if err != nil {
			return nil, err
		}
		total += ix.Count(p.keys)
	}
	return &subsetEntry{probes: probes, total: total, fallback: 2*total > rel.Len()}, nil
}
