package lmfao

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
)

// ShardVector is the version metadata of a snapshot: one VersionVector per
// shard, indexed by shard id (see ivm.ShardVector).
type ShardVector = ivm.ShardVector

// Snapshot is one published, immutable version of a session's batch
// results: a vector of N ≥ 1 committed shard parts, each holding the
// materialized output views of every query over its shard's data plus the
// base-relation version vector they reflect. Snapshots are safe for
// unrestricted concurrent use — the read path performs no locking and no
// mutation, apart from the merge cache below — and stay fully readable
// while (and after) the session's writers publish newer snapshots. A
// snapshot's memory is reclaimed by the garbage collector once no reader
// holds it; consecutive snapshots share unchanged view storage, so holding
// an old snapshot pins only what actually differed.
//
// Parts merge on read. Every join tuple of the full database lives in
// exactly one shard (the fact relation partitions; replicated dimensions
// join identically everywhere), so aggregate values add across parts and
// group sets union: Lookup sums the parts' rows, and Result materializes the
// union of a query's per-part outputs (moo.CombineViews), lazily, cached on
// the snapshot. A one-part snapshot merges nothing: it reads its part's
// views directly. Each part is itself a one-part Snapshot (Shard), and the
// part accessors Epoch, VersionVector and Batch describe part 0.
//
// Snapshot implements Queryable and Requerier: it is the read side of the
// serving API for every session and for RunQueryable. The zero value (no
// parts) serves an empty batch: NumQueries and Epoch are 0, Lookup misses,
// and Result, Batch and VersionVector return nil.
//
// lmfao:immutable-after-publish
type Snapshot struct {
	// parts are the committed parts by shard id. A part is its own only
	// part and carries the fields below; a snapshot of N > 1 parts leaves
	// them zero.
	parts    []*Snapshot
	epoch    uint64
	res      *moo.BatchResult
	versions VersionVector
	// requery evaluates a fresh ad-hoc batch behind this part (Requerier);
	// sessions install a hook that serializes with the part's writer. It
	// returns the full batch result (not just the visible views) so the
	// merge can reach the support views monoid queries need.
	requery func([]*query.Query) (*moo.BatchResult, error)

	merged mergedViews
}

// ShardedSnapshot is an alias of Snapshot, kept for callers that name a
// multi-shard session's snapshot type.
type ShardedSnapshot = Snapshot

// mergedViews caches a multi-part snapshot's merged query outputs. Reads
// through Lookup (of sum-product queries) and the parts never take mu.
type mergedViews struct {
	mu    sync.Mutex
	views []*Result
}

// newPart returns a one-part snapshot: its own only part.
//
// lmfao:pre-publish
func newPart(epoch uint64, res *moo.BatchResult, versions VersionVector, requery func([]*query.Query) (*moo.BatchResult, error)) *Snapshot {
	p := &Snapshot{epoch: epoch, res: res, versions: versions, requery: requery}
	p.parts = []*Snapshot{p}
	return p
}

// Epoch returns part 0's publication sequence number: 1 for its first Run,
// strictly increasing with every committed maintenance round. Epochs order
// snapshots of one session; they carry no cross-session meaning. Epochs
// returns every part's.
func (sn *Snapshot) Epoch() uint64 { return sn.part0().epoch }

// part0 returns part 0, or an empty part for the zero Snapshot.
func (sn *Snapshot) part0() *Snapshot {
	if len(sn.parts) == 0 {
		return &Snapshot{}
	}
	return sn.parts[0]
}

// Epochs returns each part's publication epoch, indexed by shard id.
func (sn *Snapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.parts))
	for i, p := range sn.parts {
		out[i] = p.epoch
	}
	return out
}

// Versions returns one base-relation version vector per part, indexed by
// shard id. The vectors are shared and must be treated as read-only.
func (sn *Snapshot) Versions() ShardVector {
	out := make(ShardVector, len(sn.parts))
	for i, p := range sn.parts {
		out[i] = p.versions
	}
	return out
}

// VersionVector returns the base-relation version vector part 0 reflects.
// The returned map is shared and must be treated as read-only.
func (sn *Snapshot) VersionVector() VersionVector { return sn.part0().versions }

// Batch returns part 0's underlying batch result (read-only: the views it
// holds are shared with other snapshots and with the maintenance layer).
func (sn *Snapshot) Batch() *BatchResult { return sn.part0().res }

// NumShards returns the number of parts.
func (sn *Snapshot) NumShards() int { return len(sn.parts) }

// Shard returns part i as a one-part snapshot.
func (sn *Snapshot) Shard(i int) *Snapshot { return sn.parts[i] }

// NumQueries returns the number of queries in the session batch (0 for a
// snapshot with no parts).
func (sn *Snapshot) NumQueries() int {
	if len(sn.parts) == 0 {
		return 0
	}
	return len(sn.parts[0].res.Results)
}

// Lookup returns the aggregate values for one group of query queryIdx (key
// values in the output's group-by order, which sorts attributes by ID), or
// ok=false if the group is absent from every part or the index is outside
// the batch. It is a lock-free binary search over each part's sorted key
// columns, summing the parts' rows (each part holds a disjoint partition of
// the join, so the sum is the unsharded aggregate), and trims the hidden
// tuple-count column, so the returned row has exactly the query's
// aggregates in query order.
//
// Queries with monoid aggregates are the exception: their columns do not
// add across parts (DISTINCT counts and top-k buffers do not sum), so
// multi-part lookups route through the cached merged view — first access
// per query pays the merge and takes the snapshot's merge lock.
func (sn *Snapshot) Lookup(queryIdx int, key ...int64) ([]float64, bool) {
	if queryIdx < 0 || queryIdx >= sn.NumQueries() {
		return nil, false
	}
	if plan := sn.parts[0].res.Plan; len(sn.parts) > 1 && plan.Monoids[queryIdx] != nil {
		return visibleRow(plan, queryIdx, sn.Result(queryIdx), key)
	}
	var out []float64
	for _, p := range sn.parts {
		row, ok := visibleRow(p.res.Plan, queryIdx, p.res.Results[queryIdx], key)
		if !ok {
			continue
		}
		if out == nil {
			out = row
			continue
		}
		for c := range out {
			out[c] += row[c]
		}
	}
	return out, out != nil
}

// visibleRow returns the row of group key in query qi's output v, trimmed
// to the query's aggregates (no hidden columns), or ok=false if absent or v
// is nil.
func visibleRow(plan *core.Plan, qi int, v *moo.ViewData, key []int64) ([]float64, bool) {
	if v == nil {
		return nil, false
	}
	i := v.Lookup(key...)
	if i < 0 {
		return nil, false
	}
	out := make([]float64, plan.VisibleCols(qi))
	for c := range out {
		out[c] = v.Val(i, c)
	}
	return out, true
}

// Result returns query queryIdx's materialized output (batch order), or nil
// for an index outside the batch or a snapshot with no parts: the union of
// the parts' group sets with aggregates (and the hidden tuple-count column
// after them) summed — the view a single unsharded session would serve. It
// is shared across snapshots and must not be mutated. A multi-part merge
// happens on first access and is cached, so repeated reads pay the row-copy
// cost once. For point reads use Lookup, which touches only the probed
// groups and no cache.
func (sn *Snapshot) Result(queryIdx int) *Result {
	v, _ := sn.MergedResult(queryIdx)
	return v
}

// MergedResult is Result with the error exposed: a non-nil error means the
// snapshot has no parts, the index is outside the batch, or the per-part
// outputs disagree on schema (impossible for snapshots of one session's
// batch).
func (sn *Snapshot) MergedResult(queryIdx int) (*Result, error) {
	if len(sn.parts) == 0 {
		return nil, fmt.Errorf("lmfao: snapshot has no parts")
	}
	nq := sn.NumQueries()
	if queryIdx < 0 || queryIdx >= nq {
		return nil, fmt.Errorf("lmfao: query index %d out of range (batch has %d queries)", queryIdx, nq)
	}
	if len(sn.parts) == 1 {
		return sn.parts[0].res.Results[queryIdx], nil
	}
	c := &sn.merged
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.views == nil {
		c.views = make([]*Result, nq)
	}
	if v := c.views[queryIdx]; v != nil {
		return v, nil
	}
	parts := make([]*moo.BatchResult, len(sn.parts))
	for i, p := range sn.parts {
		parts[i] = p.res
	}
	v, err := mergeQuery(parts, queryIdx)
	if err != nil {
		return nil, err
	}
	c.views[queryIdx] = v
	return v, nil
}

// mergeQuery merges user query qi across per-shard batch results of one
// batch. Sum-product columns (hidden tuple counts included) add, which
// moo.CombineViews does exactly. Monoid columns must never be summed, so a
// monoid query merges the per-shard raw output and support views — all
// plain count/sum views — and folds the merged supports into the visible
// view. Query indexes are identical across shards (plan expansion is
// deterministic on the query list), but view IDs may differ per shard
// (statistics-driven roots), so each part resolves a plan query's output
// view through its own plan.
func mergeQuery(parts []*moo.BatchResult, qi int) (*moo.ViewData, error) {
	plan := parts[0].Plan
	combine := func(j int) (*moo.ViewData, error) {
		views := make([]*moo.ViewData, len(parts))
		for i, p := range parts {
			views[i] = p.Materialized[p.Plan.OutputView[j]]
		}
		return moo.CombineViews(views)
	}
	if plan.Monoids[qi] == nil {
		return combine(qi)
	}
	idxs := []int{qi}
	for _, col := range plan.Monoids[qi].Cols {
		idxs = append(idxs, col.Support)
	}
	mat := make([]*moo.ViewData, len(plan.Views))
	for _, j := range idxs {
		if mat[plan.OutputView[j]] != nil {
			continue // a support shared by several columns
		}
		v, err := combine(j)
		if err != nil {
			return nil, err
		}
		mat[plan.OutputView[j]] = v
	}
	return moo.AssembleQuery(plan, qi, mat)
}

// Requery evaluates a fresh ad-hoc batch over the database behind this
// snapshot (the Requerier hook; LearnDecisionTreeFrom depends on it): on
// every part in parallel, merging the per-query outputs of more than one.
// For session-published snapshots each part's batch runs on its shard's
// engine, serialized with that shard's maintenance — it never races the
// writer, but it reflects the shard's current base data, which may be newer
// than this snapshot's pinned Versions; quiesce updates (Wait) when exact
// agreement matters. Snapshots from RunQueryable run on the wrapped engine
// directly.
func (sn *Snapshot) Requery(queries []*Query) ([]*Result, error) {
	if len(sn.parts) == 0 || sn.parts[0].requery == nil {
		return nil, fmt.Errorf("lmfao: snapshot has no requery hook")
	}
	parts := make([]*moo.BatchResult, len(sn.parts))
	errs := make([]error, len(sn.parts))
	var wg sync.WaitGroup
	for i, p := range sn.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = p.requery(queries)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, shardErr(i, len(parts), err)
		}
	}
	if len(parts) == 1 {
		return parts[0].Results, nil
	}
	out := make([]*Result, parts[0].Plan.UserQueries)
	for qi := range out {
		v, err := mergeQuery(parts, qi)
		if err != nil {
			return nil, err
		}
		out[qi] = v
	}
	return out, nil
}
