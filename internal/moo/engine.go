package moo

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/jointree"
	"repro/internal/query"
)

// Options selects the engine's optimization levels. The default enables
// everything; disabling individual options reproduces the ablation
// configurations of the paper's Figure 5 (the all-off configuration is the
// AC/DC proxy).
type Options struct {
	// MultiRoot lets each query use its own join-tree root (§3.3).
	MultiRoot bool
	// MultiOutput computes groups of views in one shared scan (§3.5).
	MultiOutput bool
	// Compiled specializes factor evaluation into monomorphic closures at
	// plan time (the Go analogue of the paper's code generation layer);
	// disabled, factors are interpreted per call.
	Compiled bool
	// Threads bounds the goroutines that compute for the engine at once,
	// across concurrent Run and Apply calls: they run view groups whose
	// inputs are ready (task parallelism) and take a scan's morsels (domain
	// parallelism: every full scan is cut into at most four morsels by its
	// data, whatever Threads is). The result is the same, bit for bit, for
	// every value.
	Threads int
	// TrackCounts adds a hidden tuple-count aggregate to every view so the
	// result can be incrementally maintained via Apply (see internal/ivm).
	// Output views gain a trailing core.CountColName column.
	TrackCounts bool
}

// DefaultOptions enables all optimizations with the paper's four threads
// (capped by the host CPU count).
func DefaultOptions() Options {
	t := runtime.NumCPU()
	if t > 4 {
		t = 4
	}
	return Options{
		MultiRoot:   true,
		MultiOutput: true,
		Compiled:    true,
		Threads:     t,
	}
}

// ACDCOptions is the all-optimizations-off configuration, the paper's proxy
// for the AC/DC predecessor system.
func ACDCOptions() Options {
	return Options{Threads: 1}
}

// Engine evaluates batches of group-by aggregate queries over a database's
// natural join using the layered LMFAO architecture.
type Engine struct {
	db   *data.Database
	tree *jointree.Tree
	opts Options
	// busy holds one slot per goroutine computing for the engine, Threads
	// in all: a goroutine compiles or scans a group, or runs a kernel's full
	// scan, only while it holds a slot (acquired by a send, released by a
	// receive). A goroutine never waits for a slot while it holds one, so
	// every slot holder runs to completion and no wait for a slot is stuck.
	busy chan struct{}

	mu sync.Mutex
	// sortCache holds the engine's persistent sorted copies, one per (base
	// relation, scan order); orders interns the scan orders so the cache key
	// is a comparable struct and a hit allocates nothing.
	sortCache map[sortKey]*sortEntry
	orders    [][]data.AttrID
	// kernels caches compiled maintenance kernels, one per (changed node,
	// group) of the plan being maintained (cachePlan). Each kernel carries
	// bound scan state and a reusable execution context, so it is only used
	// on the engine's single-writer Apply path. kernelHits and kernelMisses
	// count lookups.
	kernels                  map[kernelKey]*maintKernel
	kernelHits, kernelMisses uint64
	cachePlan                *core.Plan
}

// scopeCaches ties the kernel cache to plan: the first Apply of another plan
// drops every kernel. Holding the plan keeps its address from being
// reused by a later one, so a hit never returns an entry compiled for a
// different (possibly collected) plan.
func (e *Engine) scopeCaches(plan *core.Plan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cachePlan != plan {
		e.cachePlan = plan
		clear(e.kernels)
	}
}

// sortKey identifies a sorted copy: the base relation and the interned id of
// the scan order (Engine.orderID).
type sortKey struct {
	rel   *data.Relation
	order int
}

// sortEntry is a persistent sorted copy of a base relation; version is the
// base version it reflects. The engine applies each delta it maintains to
// the copies of the changed relation as well (patchCopies) — patched in place
// at a cost proportional to the delta, together with the copy's join-key
// indexes, so compiled kernels resolve semi-join probes against the same
// copy and the same indexes across Apply calls. A copy whose base changed
// without the engine seeing the change is rebuilt on its next read
// (sortedRel). mu serializes bringing the copy forward: the groups of a Run
// may ask for one copy from several goroutines.
type sortEntry struct {
	mu      sync.Mutex
	version int64
	rel     *data.Relation
}

// NewEngine builds the join tree for db (decomposing cyclic schemas) and
// returns an engine.
func NewEngine(db *data.Database, opts Options) (*Engine, error) {
	tree, err := jointree.Build(db)
	if err != nil {
		return nil, err
	}
	return NewEngineWithTree(db, tree, opts), nil
}

// NewEngineWithTree wraps an existing join tree (e.g. a hand-picked one
// matching the paper's Figure 6).
func NewEngineWithTree(db *data.Database, tree *jointree.Tree, opts Options) *Engine {
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	return &Engine{db: db, tree: tree, opts: opts, busy: make(chan struct{}, opts.Threads),
		sortCache: map[sortKey]*sortEntry{}, kernels: map[kernelKey]*maintKernel{}}
}

// KernelCacheStats is a point-in-time snapshot of the maintenance-kernel
// cache: Hits and Misses count lookups, Size the resident kernels.
type KernelCacheStats struct {
	Hits   uint64
	Misses uint64
	Size   int
}

// KernelCacheStats reports the maintenance-kernel cache's hit/miss counters
// and size (zero-valued until an Apply has run).
func (e *Engine) KernelCacheStats() KernelCacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return KernelCacheStats{Hits: e.kernelHits, Misses: e.kernelMisses, Size: len(e.kernels)}
}

// DB returns the engine's database.
func (e *Engine) DB() *data.Database { return e.db }

// Tree returns the engine's join tree.
func (e *Engine) Tree() *jointree.Tree { return e.tree }

// Options returns the engine's option set.
func (e *Engine) Options() Options { return e.opts }

// BatchResult carries the outputs of a batch run plus planning statistics.
type BatchResult struct {
	Plan *core.Plan
	// Results holds one user-visible output per USER query, batch order
	// (len == Plan.UserQueries). For queries with monoid aggregates this is
	// the assembled view — sum columns, finalized monoid columns, hidden
	// count — not the raw output view; the plan's internal support queries
	// never surface here (their views live in Materialized).
	Results []*ViewData
	// OutputBytes is the total size of the application outputs (paper
	// Table 2's "Size" column).
	OutputBytes int64
	// ViewBytes is the total size of all intermediate directional views.
	ViewBytes int64
	Elapsed   time.Duration
	// Materialized holds every materialized view (internal and output)
	// indexed by view ID — the cached state Apply maintains incrementally.
	Materialized []*ViewData
	// Versions pins the base-relation version vector the result was
	// computed over: RunPlan captures it before executing, Apply records
	// the vector its maintenance round commits (ivm.Schedule.Commits). A
	// snapshot served to concurrent readers is identified by this vector.
	Versions ivm.VersionVector
}

// PlanBatch builds the logical plan Run would execute for queries, without
// executing it. Plan construction is deterministic for a given join tree,
// query batch, option set and base-relation statistics; WAL recovery
// (lmfao.RecoverSession) relies on this to rebuild, over the pristine
// initial database, the exact plan a checkpoint's views were materialized
// under before restoring those views onto it.
func (e *Engine) PlanBatch(queries []*query.Query) (*core.Plan, error) {
	return core.BuildPlan(e.tree, queries, core.PlanOptions{
		MultiRoot:   e.opts.MultiRoot,
		MultiOutput: e.opts.MultiOutput,
		TrackCounts: e.opts.TrackCounts,
	})
}

// Run plans and executes a batch of aggregate queries. It never reorders the
// database it reads; scans in an order a relation lacks read a sorted copy.
func (e *Engine) Run(queries []*query.Query) (*BatchResult, error) {
	start := time.Now()
	plan, err := e.PlanBatch(queries)
	if err != nil {
		return nil, err
	}
	res, err := e.RunPlan(plan)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunOwned executes plan for an engine whose caller owns its database — a
// session's, which plans once and runs that plan on every recompute: it
// first sorts the bases in their plan order (SortBases), so the plan's
// scans read them in place.
func (e *Engine) RunOwned(plan *core.Plan) (*BatchResult, error) {
	if err := e.SortBases(plan); err != nil {
		return nil, err
	}
	return e.RunPlan(plan)
}

// RunPlan executes an existing logical plan from scratch over the current
// base data. Plans stay valid across base-relation deltas (only statistics
// drift), so this recomputes exactly the view DAG a maintained session
// serves — the comparison target for incremental maintenance.
func (e *Engine) RunPlan(plan *core.Plan) (*BatchResult, error) {
	start := time.Now()
	versions := ivm.CaptureVersions(e.db)
	produced, err := e.execute(plan)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{
		Plan:         plan,
		Elapsed:      time.Since(start),
		Materialized: produced,
		Versions:     versions,
	}
	if err := fillResults(plan, produced, res, nil, nil); err != nil {
		return nil, err
	}
	for _, v := range plan.Views {
		if !v.IsOutput() && produced[v.ID] != nil {
			res.ViewBytes += produced[v.ID].SizeBytes()
		}
	}
	return res, nil
}

// execute runs the plan's groups on one goroutine each. A group's goroutine
// waits for the groups it depends on, then for a busy slot; it runs the
// group unless an earlier group has failed.
func (e *Engine) execute(plan *core.Plan) ([]*ViewData, error) {
	n := len(plan.Groups)
	for g, deps := range plan.GroupDeps {
		for _, d := range deps {
			if d < 0 || d >= g {
				return nil, fmt.Errorf("moo: group %d depends on group %d of %d, not an earlier one (cyclic dependency graph)", g, d, n)
			}
		}
	}
	produced := make([]*ViewData, len(plan.Views))
	done := make([]chan struct{}, n)
	errs := make([]error, n)
	var failed atomic.Bool
	for g := range done {
		done[g] = make(chan struct{})
	}
	for g, grp := range plan.Groups {
		go func() {
			defer close(done[g])
			for _, d := range plan.GroupDeps[g] {
				<-done[d]
			}
			e.busy <- struct{}{}
			defer func() { <-e.busy }()
			if failed.Load() {
				return
			}
			if errs[g] = e.runGroup(plan, grp, produced); errs[g] != nil {
				failed.Store(true)
			}
		}()
	}
	for g := range done {
		<-done[g]
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return produced, nil
}

// runGroup compiles one view group, scans its node's base relation in the
// group's attribute order and finalizes the outputs into produced.
func (e *Engine) runGroup(plan *core.Plan, g *core.Group, produced []*ViewData) error {
	gp, err := compileGroup(plan, g, e.opts.Compiled)
	if err != nil {
		return err
	}
	if gp.rel, err = e.sortedRel(gp.node.Rel, gp.order); err != nil {
		return err
	}
	gp.resolveLeafCols()
	var ctxs []*execCtx
	builders, err := e.scanMorsels(gp, produced, &ctxs, true)
	if err != nil {
		return err
	}
	gp.finalize(produced, builders)
	return nil
}

// finalize publishes the views of gp's builders into produced.
func (gp *groupPlan) finalize(produced []*ViewData, builders []*viewBuilder) {
	for i, v := range gp.views {
		produced[v.ID] = builders[i].finalize(gp.targets[i])
	}
}

// maxMorsels bounds the morsels a full scan is cut into: the paper's four
// threads, and DefaultOptions' cap.
const maxMorsels = 4

// morsels cuts the rows of gp.rel, sorted by gp.order, into at most
// maxMorsels non-empty runs of whole top-attribute values, balancing rows
// (paper: "LMFAO partitions the largest input relations and allocates a
// thread per partition"), and returns their bounds: 0, then each morsel's
// end. The cut depends on the data alone.
func (gp *groupPlan) morsels() []int {
	n := gp.rel.Len()
	if gp.L == 0 || n == 0 {
		return []int{0, n}
	}
	var starts []int
	data.ForEachRange(gp.rel.MustCol(gp.order[0]).Ints, 0, n, func(_ int64, l, _ int) {
		starts = append(starts, l)
	})
	starts = append(starts, n)
	m := min(maxMorsels, len(starts)-1)
	bounds, next := []int{0}, 0
	for len(bounds) < m {
		want := bounds[len(bounds)-1] + n/m
		for next < len(starts)-1 && starts[next] < want {
			next++
		}
		if starts[next] == n {
			break
		}
		bounds = append(bounds, starts[next])
	}
	return append(bounds, n)
}

// scanMorsels runs gp's full scan over its bound relation, cut into morsels.
// The caller holds a busy slot and takes morsels through (*ctxs)[0]; up to
// min(Threads, morsels)-1 helpers each take them through their own context
// of *ctxs (grown to that many, and rebound to produced) once they get a free
// slot, and give up when the caller has taken the last one. Every morsel
// builds its own partial views; they merge into morsel 0's builders in
// morsel order, so the bits do not depend on Threads. scalarInit gives a
// scalar output its row even when no tuple joins.
func (e *Engine) scanMorsels(gp *groupPlan, produced []*ViewData, ctxs *[]*execCtx, scalarInit bool) ([]*viewBuilder, error) {
	bounds := gp.morsels()
	dense, wins := gp.layouts(produced, nil, bounds)
	parts := make([][]*viewBuilder, len(bounds)-1)
	workers := min(e.opts.Threads, len(parts))
	for len(*ctxs) < workers {
		*ctxs = append(*ctxs, newExecCtx(gp))
	}
	for _, c := range (*ctxs)[:workers] {
		if err := c.bind(produced); err != nil {
			return nil, err
		}
	}
	var next atomic.Int32
	take := func(c *execCtx) {
		for t := int(next.Add(1)) - 1; t < len(parts); t = int(next.Add(1)) - 1 {
			c.newBuilders(scalarInit && t == 0, dense, wins[t])
			c.run(bounds[t], bounds[t+1])
			parts[t] = c.builders
		}
	}
	taken := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range (*ctxs)[1:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case e.busy <- struct{}{}:
				take(c)
				<-e.busy
			case <-taken:
			}
		}()
	}
	take((*ctxs)[0])
	close(taken)
	wg.Wait()
	for _, p := range parts[1:] {
		for i, b := range parts[0] {
			b.merge(p[i])
		}
	}
	return parts[0], nil
}

// orderID interns a scan order: equal orders get the same small id, so
// caches keyed by (relation, order) use comparable struct keys. An engine
// sees a handful of distinct orders, found by a linear scan.
func (e *Engine) orderID(order []data.AttrID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, o := range e.orders {
		if slices.Equal(o, order) {
			return id
		}
	}
	e.orders = append(e.orders, append([]data.AttrID(nil), order...))
	return len(e.orders) - 1
}

// sortedRel returns rel sorted by order: the base relation itself when it is
// already compatible — always, for a session's bases in their plan order
// (SortBases) — else the engine's persistent sorted copy. The first request
// for a (relation, order) pair pays a full sort, and so does a request after
// the base changed without the engine applying the change to the copy
// (patchCopies). The returned relation is only valid until the next base
// mutation: callers on the write side rebind per round (maintKernel.bind
// watches the copy's Version).
func (e *Engine) sortedRel(rel *data.Relation, order []data.AttrID) (*data.Relation, error) {
	if len(order) == 0 || rel.SortedBy(order) {
		return rel, nil
	}
	key := sortKey{rel: rel, order: e.orderID(order)}
	e.mu.Lock()
	ent := e.sortCache[key]
	if ent == nil {
		ent = &sortEntry{}
		e.sortCache[key] = ent
	}
	e.mu.Unlock()
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if version := rel.Version(); ent.rel == nil || ent.version != version {
		cp, err := rel.SortedCopy(order)
		if err != nil {
			return nil, err
		}
		ent.rel, ent.version = cp, version
	}
	return ent.rel, nil
}

// patchCopies applies d, the delta that just took rel from version from to
// its current version, to every persistent sorted copy of rel that reflects
// from, so that each stays equal to a fresh SortedCopy of rel. Copies at any
// other version are left for sortedRel to rebuild. An empty d took no step
// and patches nothing.
func (e *Engine) patchCopies(rel *data.Relation, d data.Delta, from int64) error {
	if d.Empty() {
		return nil
	}
	e.mu.Lock()
	var ents []*sortEntry
	for key, ent := range e.sortCache {
		if key.rel == rel {
			ents = append(ents, ent)
		}
	}
	e.mu.Unlock()
	version := rel.Version()
	for _, ent := range ents {
		ent.mu.Lock()
		var err error
		if ent.rel != nil && ent.version == from {
			if err = ent.rel.ApplyDelta(d); err == nil {
				ent.version = version
			} else {
				ent.rel = nil // possibly diverged: rebuild on the next request
			}
		}
		ent.mu.Unlock()
		if err != nil {
			return fmt.Errorf("moo: sorted copy of %q diverged from its base: %w", rel.Name, err)
		}
	}
	return nil
}

// SortBases sorts the relation of every plain join-tree node in place by
// plan's order for that node (core.Plan.AttrOrder) — a no-op for a relation
// already sorted by it — so that plan's scans, and the maintenance of its
// views, read the base itself where they would read a sorted copy
// (sortedRel). The base's later mutations keep the order (data.Relation
// Append and DeleteRows merge into it). Materialized hypertree bags, and
// scans in any other order, keep their copies. A relation that moves loses
// the engine's sorted copies of it, and every kernel is dropped, since a
// kernel may be bound to the old layout.
//
// Only an engine that owns its database calls it — RunOwned, and a
// session's recovery: a batch Run never reorders the database it reads.
func (e *Engine) SortBases(plan *core.Plan) error {
	for _, n := range e.tree.Nodes {
		order := plan.AttrOrder[n.ID]
		if n.IsBag() || n.Rel.SortedBy(order) {
			continue
		}
		if err := n.Rel.SortBy(order); err != nil {
			return err
		}
		e.mu.Lock()
		for key := range e.sortCache {
			if key.rel == n.Rel {
				delete(e.sortCache, key)
			}
		}
		clear(e.kernels)
		e.mu.Unlock()
	}
	return nil
}

// SortedCopyOrders returns the scan orders for which e holds a persistent
// sorted copy of rel — a diagnostic of the physical design: a relation
// sorted by SortBases has none for its own plan order.
func SortedCopyOrders(e *Engine, rel *data.Relation) [][]data.AttrID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]data.AttrID
	for key := range e.sortCache {
		if key.rel == rel {
			out = append(out, e.orders[key.order])
		}
	}
	return out
}
