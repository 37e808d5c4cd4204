package lmfao

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
)

// ShardVector is the version metadata of a sharded snapshot: one
// VersionVector per shard, indexed by shard id (see ivm.ShardVector).
type ShardVector = ivm.ShardVector

// ShardOptions configures NewShardedSession.
type ShardOptions struct {
	// Shards is the number of partitions (and independent shard writers).
	// Must be at least 1; 1 yields a functional (if pointless) single-shard
	// session, useful as the baseline in scaling measurements.
	Shards int
	// Relation names the fact relation to hash-partition. Empty selects the
	// largest relation in the database — the fact table in every
	// star/snowflake schema this engine targets.
	Relation string
	// Key lists the discrete attributes the fact relation is hash-partitioned
	// on (data.ShardOf over the tuple's values). Nil selects the first
	// attribute in the fact's schema order that is discrete and shared with
	// another relation — a join key, so co-partitioned groups stay
	// shard-local where possible.
	Key []AttrID
}

// ShardedStats are cumulative fan-out counters of a ShardedSession,
// reporting how much batching the per-shard queues achieved: Enqueued counts
// shard-local updates handed to the shard writers (after routing), Applied
// the updates actually applied after coalescing, Rounds the maintenance
// rounds that covered them. Enqueued/Rounds is the average
// batch size the coalescing achieved.
type ShardedStats struct {
	Shards   int
	Enqueued int64
	Applied  int64
	Rounds   int64
}

// ShardedSession scales maintenance throughput beyond a single Session's
// one-writer limit: the fact relation is hash-partitioned on a join key into
// N shard databases (dimension relations replicated), each maintained by an
// independent Session writer on its own goroutine. Updates fan out by key —
// a fact update routes each tuple to its hash shard, a dimension update
// broadcasts to every shard — and queued updates batch/coalesce per shard,
// amortizing per-round maintenance overhead under high-rate streams.
//
// Reads merge per-shard results: every join tuple of the full database lives
// in exactly one shard (the fact partitions; replicated dimensions join
// identically everywhere), so aggregate values add across shards and group
// sets union — Snapshot returns a ShardedSnapshot whose Lookup and Result
// perform exactly that combination (moo.CombineViews).
//
// # Consistency
//
// Each shard keeps the full snapshot-isolation guarantees of its Session:
// shard components of a ShardedSnapshot are immutable committed states,
// acquired lock-free. Cross-shard, the snapshot is a vector of per-shard
// states (Versions returns the matching ShardVector), not a single global
// prefix: while a broadcast (dimension) update is mid-fan-out, some shards
// may reflect it before others. Fact-only streams have no such window —
// per-shard sub-streams touch disjoint data, so every shard-state vector
// equals some interleaving of the applied updates. To observe a fully
// drained state, call Wait (or use the synchronous Apply) before Snapshot.
//
// The source database passed to NewShardedSession is copied, not adopted:
// the sharded session owns its shard databases, and later mutations of the
// source are invisible to it.
type ShardedSession struct {
	fanout
}

// NewShardedSession partitions db per so (data.PartitionDatabase: fact
// hash-partitioned, everything else replicated) and builds one maintained
// Session per shard over the query batch, each with its own engine and join
// tree and each served by a dedicated writer goroutine. db itself is left
// as it is; Run reorders each shard database's rows into its plan order,
// as NewSession's Run does. Call Run once, then stream updates through
// Apply/ApplyAsync; call Close when done to stop the writers (the shard
// data remains readable).
func NewShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions) (*ShardedSession, error) {
	fact, key, err := resolveShardFact(db, so)
	if err != nil {
		return nil, err
	}
	s := &ShardedSession{}
	err = s.init(db, fact, key, so.Shards, func(_ int, sdb *Database) (*Session, error) {
		sess, err := NewSession(sdb, queries, opts)
		if err == nil {
			sess.w.coalesce = true
		}
		return sess, err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// resolveShardFact applies ShardOptions' defaulting rules: pick the fact
// relation (largest when unnamed) and the shard key (first discrete join
// attribute when unset). Shared by ShardedSession and DurableShardedSession.
func resolveShardFact(db *Database, so ShardOptions) (*data.Relation, []AttrID, error) {
	if so.Shards < 1 {
		return nil, nil, fmt.Errorf("lmfao: sharded session needs at least 1 shard, got %d", so.Shards)
	}
	fact := db.Relation(so.Relation)
	if so.Relation == "" {
		for _, r := range db.Relations() {
			if fact == nil || r.Len() > fact.Len() {
				fact = r
			}
		}
	}
	if fact == nil {
		return nil, nil, fmt.Errorf("lmfao: sharded session: no fact relation %q in the database", so.Relation)
	}
	key := so.Key
	if key == nil {
		key = defaultShardKey(db, fact)
		if key == nil {
			return nil, nil, fmt.Errorf("lmfao: sharded session: relation %q has no discrete attribute to shard on", fact.Name)
		}
	}
	return fact, key, nil
}

// defaultShardKey picks the first discrete fact attribute (schema order)
// shared with another relation — a join key — falling back to the first
// discrete attribute.
func defaultShardKey(db *Database, fact *data.Relation) []AttrID {
	var firstDiscrete []AttrID
	for _, a := range fact.Attrs {
		c, _ := fact.Col(a)
		if !c.IsInt() {
			continue
		}
		if firstDiscrete == nil {
			firstDiscrete = []AttrID{a}
		}
		for _, r := range db.Relations() {
			if r.Name != fact.Name && r.HasAttr(a) {
				return []AttrID{a}
			}
		}
	}
	return firstDiscrete
}

// Shard returns shard i's underlying Session — read it (Snapshot) freely;
// writing through it directly (Apply/Run/Close) would bypass routing and
// break the partition invariant.
func (s *ShardedSession) Shard(i int) *Session { return s.sessions[i] }

// Stats returns the cumulative fan-out counters.
func (s *ShardedSession) Stats() ShardedStats {
	st := ShardedStats{Shards: len(s.sessions), Enqueued: s.enqueued.Load()}
	for _, sess := range s.sessions {
		st.Applied += sess.w.applied.Load()
		st.Rounds += sess.w.rounds.Load()
	}
	return st
}

// routeUpdates splits one call's updates into per-shard update lists,
// preserving relative order: fact updates partition tuple-by-tuple via
// data.RouteDelta, every other update is broadcast to all shards (dimension
// relations are replicated). Shards left untouched by every update get a nil
// list.
func routeUpdates(factSchema *data.Relation, key []AttrID, shards int, updates []Update) ([][]Update, error) {
	perShard := make([][]Update, shards)
	for _, u := range updates {
		if u.Relation == factSchema.Name {
			routed, err := data.RouteDelta(factSchema, u, key, shards)
			if err != nil {
				return nil, err
			}
			for sh, ru := range routed {
				if !ru.Empty() {
					perShard[sh] = append(perShard[sh], ru)
				}
			}
		} else {
			for sh := range perShard {
				perShard[sh] = append(perShard[sh], u)
			}
		}
	}
	return perShard, nil
}

// coalesceUpdates merges adjacent same-relation updates when the merge
// cannot change semantics: insert-only runs concatenate into one insert
// block, delete-only runs into one delete block. Mixed insert+delete updates
// pass through unmerged — a Delta applies deletes before inserts, so folding
// u1's inserts and u2's deletes into one delta could delete a row u1 was
// about to create. The one observable difference: a coalesced delete block
// fails atomically where the sequential updates would have partially
// applied.
//
// owner tags each input update with its source job index (ascending); the
// returned firstJob slice carries, per output update, the lowest
// contributing job index — the error-attribution map for failed rounds.
// Each coalescible run is measured first and concatenated once, so a burst
// of k updates costs one copy of each block, not k accumulator re-copies.
func coalesceUpdates(updates []Update, owner []int) ([]Update, []int) {
	out := make([]Update, 0, len(updates))
	firstJob := make([]int, 0, len(updates))
	for i := 0; i < len(updates); {
		j := i + 1
		for j < len(updates) && canCoalesce(updates[i], updates[j]) {
			// canCoalesce is associative over a run: updates[i] determines
			// the relation and the insert-only/delete-only side, and every
			// accepted update matches both.
			j++
		}
		u := updates[i]
		if j > i+1 {
			u = Update{
				Relation: u.Relation,
				Inserts:  concatRun(updates[i:j], func(x Update) []Column { return x.Inserts }),
				Deletes:  concatRun(updates[i:j], func(x Update) []Column { return x.Deletes }),
			}
		}
		out = append(out, u)
		firstJob = append(firstJob, owner[i])
		i = j
	}
	return out, firstJob
}

func canCoalesce(a, b Update) bool {
	insOnly := a.DeleteRows() == 0 && b.DeleteRows() == 0
	delOnly := a.InsertRows() == 0 && b.InsertRows() == 0
	return a.Relation == b.Relation && (insOnly || delOnly)
}

// concatRun concatenates one side's tuple blocks across a coalescible run
// into fresh, exactly-sized storage (nil when every member's side is empty;
// the inputs are caller-owned and never mutated). Each source block is
// copied exactly once.
func concatRun(run []Update, side func(Update) []Column) []Column {
	var blocks [][]Column
	for _, u := range run {
		if b := side(u); len(b) > 0 && b[0].Len() > 0 {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) == 0 {
		return nil
	}
	out := make([]Column, len(blocks[0]))
	for ci := range out {
		ints, floats := make([][]int64, len(blocks)), make([][]float64, len(blocks))
		for bi, b := range blocks {
			ints[bi], floats[bi] = b[ci].Ints, b[ci].Floats
		}
		if blocks[0][ci].IsInt() {
			out[ci] = data.NewIntColumn(slices.Concat(ints...))
		} else {
			out[ci] = data.NewFloatColumn(slices.Concat(floats...))
		}
	}
	return out
}

// ShardedSnapshot is one merged, immutable view of a sharded session: a
// vector of per-shard Snapshots, each individually committed and immutable
// (see the consistency contract on ShardedSession). Merging happens on
// read: Lookup sums per-shard rows, Result materializes the union of a
// query's per-shard outputs (lazily, cached on the snapshot).
//
// ShardedSnapshot implements Queryable and Requerier: it is the sharded
// read side of the serving API, so applications written against Queryable
// learn from a live sharded session exactly as from an unsharded one. The
// zero value (no shard components) serves an empty batch: NumQueries is 0,
// Lookup misses, Result returns nil.
type ShardedSnapshot struct {
	shards []*Snapshot

	// mergeMu guards the lazy merged-view cache. Reads through Lookup and
	// the per-shard components never take it.
	mergeMu sync.Mutex
	merged  []*Result
}

// NumShards returns the number of shard components.
func (sn *ShardedSnapshot) NumShards() int { return len(sn.shards) }

// Shard returns shard i's component snapshot.
func (sn *ShardedSnapshot) Shard(i int) *Snapshot { return sn.shards[i] }

// NumQueries returns the number of queries in the session batch (0 for a
// snapshot with no shard components).
func (sn *ShardedSnapshot) NumQueries() int {
	if len(sn.shards) == 0 {
		return 0
	}
	return sn.shards[0].NumQueries()
}

// Epochs returns each shard's publication epoch, indexed by shard id.
func (sn *ShardedSnapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.shards))
	for i, sh := range sn.shards {
		out[i] = sh.Epoch()
	}
	return out
}

// Versions returns the shard vector pinning each component's base-relation
// versions.
func (sn *ShardedSnapshot) Versions() ShardVector {
	out := make(ShardVector, len(sn.shards))
	for i, sh := range sn.shards {
		out[i] = sh.VersionVector()
	}
	return out
}

// Lookup merges one group's aggregates across shards: per-shard values add
// (each shard holds a disjoint partition of the join, so the sum is the
// unsharded aggregate) and ok is false only when the group is absent from
// every shard (always, for a snapshot with no shard components or an index
// outside the batch). Like Snapshot.Lookup it is lock-free, binary-searches
// each shard's sorted output and returns exactly the query's aggregate
// columns.
//
// Queries with monoid aggregates are the exception: their columns do not
// add across shards (the shard-wise MIN of MINs is fine, but DISTINCT
// counts and top-k buffers are not), so multi-shard lookups route through
// the cached merged view — first access per query pays the merge and takes
// the snapshot's merge lock.
func (sn *ShardedSnapshot) Lookup(queryIdx int, key ...int64) ([]float64, bool) {
	if queryIdx < 0 || queryIdx >= sn.NumQueries() {
		return nil, false
	}
	if plan := sn.shards[0].res.Plan; len(sn.shards) > 1 && plan.Monoids[queryIdx] != nil {
		return visibleRow(plan, queryIdx, sn.Result(queryIdx), key)
	}
	var out []float64
	for _, sh := range sn.shards {
		row, ok := sh.Lookup(queryIdx, key...)
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

// Result returns query queryIdx's full merged output: the union of the
// per-shard group sets with aggregates (and the hidden tuple-count column)
// summed — the view a single unsharded session would serve, read-only. The
// merge happens lazily on first access and is cached on the snapshot, so
// repeated reads (an application assembling its statistics, say) pay the
// row-copy cost once; a single-shard snapshot shares the shard's view
// directly. Returns nil for a snapshot with no shard components. For point
// reads use Lookup, which touches only the probed groups and no cache.
func (sn *ShardedSnapshot) Result(queryIdx int) *Result {
	v, _ := sn.MergedResult(queryIdx)
	return v
}

// MergedResult is Result with the merge error exposed: a non-nil error
// means the snapshot has no shard components or the per-shard outputs
// disagree on schema (impossible for snapshots of one session's batch).
func (sn *ShardedSnapshot) MergedResult(queryIdx int) (*Result, error) {
	if len(sn.shards) == 0 {
		return nil, fmt.Errorf("lmfao: sharded snapshot has no shard components")
	}
	if nq := sn.NumQueries(); queryIdx < 0 || queryIdx >= nq {
		return nil, fmt.Errorf("lmfao: query index %d out of range (batch has %d queries)", queryIdx, nq)
	}
	if len(sn.shards) == 1 {
		return sn.shards[0].Result(queryIdx), nil
	}
	sn.mergeMu.Lock()
	defer sn.mergeMu.Unlock()
	if sn.merged == nil {
		sn.merged = make([]*Result, sn.NumQueries())
	}
	if v := sn.merged[queryIdx]; v != nil {
		return v, nil
	}
	parts := make([]*moo.BatchResult, len(sn.shards))
	for i, sh := range sn.shards {
		parts[i] = sh.res
	}
	v, err := mergeQuery(parts, queryIdx)
	if err != nil {
		return nil, err
	}
	sn.merged[queryIdx] = v
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

// Requery evaluates a fresh ad-hoc batch across every shard and merges the
// per-query outputs (the Requerier hook; LearnDecisionTreeFrom depends on
// it). Each shard's evaluation serializes with that shard's writer and the
// shards run in parallel; like Snapshot.Requery, the result reflects each
// shard's current base data, which may be newer than this snapshot's pinned
// components — quiesce updates (Wait) when exact agreement matters.
func (sn *ShardedSnapshot) Requery(queries []*Query) ([]*Result, error) {
	if len(sn.shards) == 0 {
		return nil, fmt.Errorf("lmfao: sharded snapshot has no shard components")
	}
	parts := make([]*moo.BatchResult, len(sn.shards))
	errs := make([]error, len(sn.shards))
	var wg sync.WaitGroup
	for i, sh := range sn.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = sh.requery(queries)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
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
