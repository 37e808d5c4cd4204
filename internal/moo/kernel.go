package moo

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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
// gathered once per (relation, semi-join signature) and shared across every
// kernel of the Apply round through a scanCache. The batch is kept as its
// defining probe set; each kernel resolves it against the join-key index of
// the engine's persistent per-order sorted copy of the base and walks the
// matched positions ascending through the id indirection (execCtx.ids): a
// restricted scan over an unchanged base costs one integer sort, never a
// gather, stable sort or subset copy. Sorted copies of large at-delta tuple
// blocks are shared per scan order the same way; small blocks run the
// indirection against the unsorted block directly.
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
	// compile time from the logical plan instead of per Apply; attrTags[i]
	// prefixes the canonical tag of each of that input's probes (probeSet).
	probePos [][]int
	attrTags []string

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
		k.attrTags = make([]string, len(st.DeltaInputs))
		for i, in := range st.DeltaInputs {
			attrs := st.SemiJoinAttrs[i]
			k.attrTags[i] = fmt.Sprintf("%v\x00", attrs)
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
// round: sorted copies of delta tuple blocks (per scan order) and semi-join
// row-id batches (per semi-join signature). Sharing them across the groups
// of a multi-group plan is where kernel compilation pays. The cache lives for a single Apply call on the engine's
// single-writer path — entries never survive a base-relation mutation.
//
// Every map is keyed by a comparable struct (pointers, an interned order id,
// the probe-set string the round already built), so a hit allocates nothing.
type scanCache struct {
	e       *Engine
	sorted  map[sortKey]*data.Relation
	subsets map[subsetKey]*subsetEntry
	// positions memoizes a subset's sorted scan positions per (subset,
	// sorted copy): kernels at the same node share one scan order, so the
	// probe resolution and integer sort run once, not per group.
	positions map[positionsKey][]int32
}

// subsetKey identifies a semi-join row-id batch: the scanned relation and
// the canonical encoding of the probe set (maintKernel.probeSet).
type subsetKey struct {
	rel    *data.Relation
	probes string
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
		subsets:   map[subsetKey]*subsetEntry{},
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
// unique (attrs, key) lookups that select the subset, plus the matched row
// total. Consumers resolve the probes against the join-key index of whichever
// sorted copy they scan, so the entry itself is scan-order agnostic.
type subsetEntry struct {
	probes   []probeReq
	total    int  // matched rows across probes (before cross-signature dedup)
	fallback bool // subset covers most of the relation: callers full-scan
}

// probeReq is one unique (semi-join attrs, delta key) pair to look up in the
// scanned relation's join-key index. tag is the canonical form used for
// dedup and cache keying; key is the raw index lookup key.
type probeReq struct {
	attrs []data.AttrID
	tag   string
	key   string
}

// probeSet collects the unique probe pairs of k's step against the current
// delta views, sorted canonically (duplicates are adjacent after the sort
// and dropped there), plus an unambiguous joined cache key
// (length-prefixed — raw key bytes may contain any delimiter). The subset a
// step scans is fully determined by (relation, probe set), so steps whose
// delta views carry the same join keys — the common case, since every dirty
// view at a node derives from the same base delta — share one gathered
// subset regardless of which views they consume.
func (k *maintKernel) probeSet(deltas []*ViewData) ([]probeReq, string) {
	var probes []probeReq
	var buf []byte
	for i, in := range k.st.DeltaInputs {
		dv := deltas[in]
		if dv == nil || dv.NumRows() == 0 {
			continue
		}
		attrs, attrsTag := k.st.SemiJoinAttrs[i], k.attrTags[i]
		pos := k.probePos[i]
		for r := 0; r < dv.NumRows(); r++ {
			buf = buf[:0]
			for _, p := range pos {
				buf = data.AppendKey(buf, dv.KeyAt(r, p))
			}
			tag := attrsTag + string(buf)
			probes = append(probes, probeReq{attrs: attrs, tag: tag, key: tag[len(attrsTag):]})
		}
	}
	slices.SortFunc(probes, func(a, b probeReq) int { return strings.Compare(a.tag, b.tag) })
	probes = slices.CompactFunc(probes, func(a, b probeReq) bool { return a.tag == b.tag })
	var ck []byte
	for _, p := range probes {
		ck = strconv.AppendInt(ck, int64(len(p.tag)), 10)
		ck = append(append(ck, ':'), p.tag...)
	}
	return probes, string(ck)
}

// subsetFor resolves the shared row-id batch for k's step against rel,
// probing the join-key index only on the first request per probe set. The
// probes are sized against the persistent sorted copy k scans — the same
// rows as rel, whose indexes the restricted scan uses anyway — so the base
// relation needs no join-key index of its own.
func (sc *scanCache) subsetFor(k *maintKernel, rel *data.Relation, deltas []*ViewData) (*subsetEntry, error) {
	probes, ckey := k.probeSet(deltas)
	key := subsetKey{rel: rel, probes: ckey}
	if se, ok := sc.subsets[key]; ok {
		return se, nil
	}
	sorted, err := sc.e.sortedRel(rel, k.gp.order)
	if err != nil {
		return nil, err
	}
	se, err := gatherIDs(sorted, probes)
	if err != nil {
		return nil, err
	}
	sc.subsets[key] = se
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
// the engine's persistent sorted copy of the base: the batch's probes
// resolve against the sorted copy's own join-key index (persistent and
// patched under deltas, like the copy; a plain binary search when the probe
// attributes lead the scan order) to scan positions, which one integer sort
// plus a dedup pass put in scan order — no per-delta gather, stable sort or
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
			pos = ix.AppendRows(pos, p.key)
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

// gatherIDs sizes the probe set against rel's join-key index and decides
// between the restricted and full-scan strategy. No row ids are materialized
// here: consumers resolve the probes against the sorted copy they scan
// (runIDBatch), whose key indexes persist across Apply calls. fallback is
// set when the subset would cover more than half of the relation (counting
// pre-dedup matches): callers should full-scan instead.
func gatherIDs(rel *data.Relation, probes []probeReq) (*subsetEntry, error) {
	total := 0
	for _, p := range probes {
		ix, err := rel.KeyIndex(p.attrs)
		if err != nil {
			return nil, err
		}
		total += ix.Count(p.key)
	}
	if 2*total > rel.Len() {
		return &subsetEntry{fallback: true}, nil
	}
	return &subsetEntry{probes: probes, total: total}, nil
}
