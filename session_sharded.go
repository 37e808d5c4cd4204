package lmfao

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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
// shard-local updates handed to the workers (after routing), Applied the
// updates actually applied after coalescing, Rounds the maintenance rounds
// (Session.Apply calls) that covered them. Enqueued/Rounds is the average
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
	sessions []*Session
	factName string
	key      []AttrID
	// factSchema carries the fact relation's schema for delta routing: a
	// detached zero-row relation, so routing reads never race with shard
	// writers mutating the live instances.
	factSchema *data.Relation

	jobs []chan *shardJob
	// pending tracks enqueued-but-undelivered shard jobs for Wait.
	pending sync.WaitGroup
	// workers drains on Close.
	workers sync.WaitGroup
	// closeMu lets producers enqueue under a read lock while Close takes the
	// write lock to flip closed, so an ApplyAsync racing Close can never
	// send on a closed queue.
	closeMu sync.RWMutex
	closed  atomic.Bool

	enqueued atomic.Int64
	applied  atomic.Int64
	rounds   atomic.Int64
}

// shardJob is one ApplyAsync call's slice of updates for one shard, plus the
// aggregate result it reports into.
type shardJob struct {
	updates []Update
	res     *asyncResult
}

// asyncResult fans one ApplyAsync call's per-shard completions back into a
// single ApplyResult.
type asyncResult struct {
	mu        sync.Mutex
	remaining int
	stats     []*ApplyStats
	err       error
	ch        chan ApplyResult
}

func (r *asyncResult) deliver(stats []*ApplyStats, err error) {
	r.mu.Lock()
	r.stats = append(r.stats, stats...)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.remaining--
	done := r.remaining == 0
	var out ApplyResult
	if done {
		out = ApplyResult{Stats: r.stats, Err: r.err}
	}
	r.mu.Unlock()
	if done {
		r.ch <- out
	}
}

// NewShardedSession partitions db per so (data.PartitionDatabase: fact
// hash-partitioned, everything else replicated) and builds one maintained
// Session per shard over the query batch, each with its own engine and join
// tree and each served by a dedicated worker goroutine. Call Run once, then
// stream updates through Apply/ApplyAsync; call Close when done to stop the
// workers (the shard data remains readable).
func NewShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions) (*ShardedSession, error) {
	factRel, key, err := resolveShardFact(db, so)
	if err != nil {
		return nil, err
	}
	factName := factRel.Name
	shardDBs, err := data.PartitionDatabase(db, factName, key, so.Shards)
	if err != nil {
		return nil, err
	}
	s := &ShardedSession{
		sessions: make([]*Session, so.Shards),
		factName: factName,
		key:      append([]AttrID(nil), key...),
		jobs:     make([]chan *shardJob, so.Shards),
	}
	for i, sdb := range shardDBs {
		sess, err := NewSession(sdb, queries, opts)
		if err != nil {
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
		s.sessions[i] = sess
	}
	s.factSchema = emptySchemaRelation(factRel)
	for i := range s.jobs {
		s.jobs[i] = make(chan *shardJob, 256)
		s.workers.Add(1)
		go s.worker(i)
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
	factName := so.Relation
	if factName == "" {
		for _, r := range db.Relations() {
			if factRel := db.Relation(factName); factRel == nil || r.Len() > factRel.Len() {
				factName = r.Name
			}
		}
		if factName == "" {
			return nil, nil, fmt.Errorf("lmfao: sharded session over an empty database")
		}
	}
	factRel := db.Relation(factName)
	if factRel == nil {
		return nil, nil, fmt.Errorf("lmfao: sharded session: unknown fact relation %q", factName)
	}
	key := so.Key
	if key == nil {
		key = defaultShardKey(db, factRel)
		if key == nil {
			return nil, nil, fmt.Errorf("lmfao: sharded session: relation %q has no discrete attribute to shard on", factName)
		}
	}
	return factRel, key, nil
}

// emptySchemaRelation clones a relation's schema with zero-row typed
// columns: a safe, immutable carrier for block validation and routing.
func emptySchemaRelation(r *data.Relation) *data.Relation {
	cols := make([]Column, len(r.Cols))
	for i, c := range r.Cols {
		if c.IsInt() {
			cols[i] = data.NewIntColumn(nil)
		} else {
			cols[i] = data.NewFloatColumn(nil)
		}
	}
	return data.NewRelation(r.Name, append([]AttrID(nil), r.Attrs...), cols)
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

// NumShards returns the shard count.
func (s *ShardedSession) NumShards() int { return len(s.sessions) }

// Shard returns shard i's underlying Session — read it (Snapshot) freely;
// writing through it directly (Apply/Run/Close) would bypass routing and
// break the partition invariant.
func (s *ShardedSession) Shard(i int) *Session { return s.sessions[i] }

// FactRelation returns the name of the hash-partitioned relation.
func (s *ShardedSession) FactRelation() string { return s.factName }

// ShardKey returns the attributes the fact relation is partitioned on.
func (s *ShardedSession) ShardKey() []AttrID { return append([]AttrID(nil), s.key...) }

// Stats returns the cumulative fan-out counters.
func (s *ShardedSession) Stats() ShardedStats {
	return ShardedStats{
		Shards:   len(s.sessions),
		Enqueued: s.enqueued.Load(),
		Applied:  s.applied.Load(),
		Rounds:   s.rounds.Load(),
	}
}

// Run computes the batch on every shard (in parallel) and returns the first
// merged snapshot. Like Session.Run it can be called again to force a full
// recompute everywhere.
//
// Run is atomic across shards: every shard stages its recomputed result
// first (Session.stageRun), and the per-shard snapshots are published only
// when all of them succeeded. A failed Run therefore changes nothing
// observable — every shard keeps serving its previous snapshot, and Head
// never merges recomputed shards with stale ones.
//
// lmfao:acquires closeMu.R
func (s *ShardedSession) Run() (Queryable, error) {
	// Hold the enqueue read lock for the whole recompute (the ApplyAsync
	// pattern, but for the call's duration): Run executes against the shard
	// sessions, and a Close racing it must block until the recompute is
	// done rather than tear the session down mid-flight.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return nil, errSessionClosed
	}
	finishes := make([]func(bool), len(s.sessions))
	errs := make([]error, len(s.sessions))
	var wg sync.WaitGroup
	for i, sess := range s.sessions {
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			finishes[i], errs[i] = sess.stageRun()
		}(i, sess)
	}
	wg.Wait()
	var firstErr error
	for i, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("lmfao: shard %d: %w", i, err)
			break
		}
	}
	commit := firstErr == nil
	for _, finish := range finishes {
		if finish != nil {
			finish(commit)
		}
	}
	if !commit {
		return nil, firstErr
	}
	return s.Head(), nil
}

// route splits one call's updates into per-shard update lists, preserving
// relative order: fact updates partition tuple-by-tuple via data.RouteDelta,
// every other update is broadcast to all shards (dimension relations are
// replicated). Shards left untouched by every update get a nil list.
func (s *ShardedSession) route(updates []Update) ([][]Update, error) {
	return routeUpdates(s.factSchema, s.key, len(s.sessions), updates)
}

// routeUpdates is the routing core shared by ShardedSession and
// DurableShardedSession (see route).
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

// ApplyAsync routes the updates to their shards, enqueues them on the
// per-shard worker queues and returns a buffered channel delivering one
// aggregate result when every involved shard has committed. Queued updates
// of consecutive calls may be batched and coalesced per shard before
// maintenance (see coalesceUpdates), so the delivered Stats describe the
// maintenance rounds that covered this call's updates — after coalescing,
// their update granularity can differ from the call's. Per shard, updates
// commit in enqueue order; across shards there is no global order (see the
// consistency contract on ShardedSession).
//
// Error contract: a delivered Err means at least one of THIS call's updates
// did not commit on some shard — calls whose updates all landed in failed
// rounds' committed prefixes receive Err == nil even when a later queued
// update broke a round. A failed shard keeps serving its last committed
// snapshot and recovers on its next round, like a plain Session. Unlike a
// plain Session, a failed update is not atomic ACROSS shards: an update
// whose tuples route to several shards can commit its slice on some shards
// and fail on another (e.g. a delete block whose missing tuple hashes to one
// shard — the siblings' slices validate independently and commit). Do not
// blindly re-submit a failed multi-shard update; reconcile against
// Snapshot() first, or keep delete batches shard-local (single-key batches
// route to one shard by construction).
//
// lmfao:acquires closeMu.R
func (s *ShardedSession) ApplyAsync(updates ...Update) <-chan ApplyResult {
	ch := make(chan ApplyResult, 1)
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		ch <- ApplyResult{Err: errSessionClosed}
		return ch
	}
	perShard, err := s.route(updates)
	if err != nil {
		ch <- ApplyResult{Err: err}
		return ch
	}
	res := &asyncResult{ch: ch}
	for _, list := range perShard {
		if list != nil {
			res.remaining++
		}
	}
	if res.remaining == 0 {
		ch <- ApplyResult{}
		return ch
	}
	for sh, list := range perShard {
		if list == nil {
			continue
		}
		s.enqueued.Add(int64(len(list)))
		s.pending.Add(1)
		s.jobs[sh] <- &shardJob{updates: list, res: res}
	}
	return ch
}

// Apply routes the updates, waits for every involved shard to commit and
// returns the per-round maintenance stats (shard completion order) plus the
// first error. It is ApplyAsync plus the wait, so a returned Snapshot
// reflects all of this call's updates on every shard.
func (s *ShardedSession) Apply(updates ...Update) ([]*ApplyStats, error) {
	res := <-s.ApplyAsync(updates...)
	return res.Stats, res.Err
}

// Wait blocks until every update enqueued so far has been applied and
// committed. Concurrent ApplyAsync callers make the drained condition a
// moving target — quiesce producers first.
func (s *ShardedSession) Wait() { s.pending.Wait() }

// Close stops the shard workers after draining their queues. Further
// ApplyAsync/Apply calls fail; snapshots and shard sessions stay readable.
// Close is idempotent.
//
// lmfao:acquires closeMu
func (s *ShardedSession) Close() {
	s.closeMu.Lock()
	already := s.closed.Swap(true)
	s.closeMu.Unlock()
	if already {
		return
	}
	s.pending.Wait()
	for _, ch := range s.jobs {
		close(ch)
	}
	s.workers.Wait()
}

// worker is shard sh's single writer: it drains the queue greedily, so a
// burst of small updates enqueued while a previous round was in flight is
// applied as one coalesced round. On a failed round the error is delivered
// only to the jobs whose updates did not all commit: Session.Apply stops at
// the first failing (coalesced) update and returns stats for the committed
// prefix, and each coalesced update is all-or-nothing (block validation
// precedes mutation), so a job is known-committed exactly when every
// coalesced update it fed into lies in that prefix.
func (s *ShardedSession) worker(sh int) {
	defer s.workers.Done()
	sess := s.sessions[sh]
	for job := range s.jobs[sh] {
		batch := []*shardJob{job}
	drain:
		for {
			select {
			case next, ok := <-s.jobs[sh]:
				if !ok {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		var updates []Update
		var owner []int // source job index, parallel to updates
		for ji, j := range batch {
			for _, u := range j.updates {
				updates = append(updates, u)
				owner = append(owner, ji)
			}
		}
		coalesced, firstJob := coalesceUpdates(updates, owner)
		stats, err := sess.Apply(coalesced...)
		s.rounds.Add(1)
		s.applied.Add(int64(len(coalesced)))
		// Jobs whose updates all landed in the committed prefix succeeded
		// even if a later job's update failed the round. Contributors ascend
		// across coalesced updates, so every job below the failing update's
		// first contributor is fully committed; that contributor and
		// everything after it is not. An error without an identifiable
		// failing update (e.g. the trailing recompute failed) taints all.
		okThrough := len(batch)
		if err != nil {
			okThrough = 0
			if len(stats) < len(coalesced) {
				okThrough = firstJob[len(stats)]
			}
		}
		for ji, j := range batch {
			if err != nil && ji >= okThrough {
				j.res.deliver(stats, err)
			} else {
				j.res.deliver(stats, nil)
			}
			s.pending.Done()
		}
	}
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
	if a.Relation != b.Relation {
		return false
	}
	insOnly := a.DeleteRows() == 0 && b.DeleteRows() == 0
	delOnly := a.InsertRows() == 0 && b.InsertRows() == 0
	return insOnly || delOnly
}

// concatRun concatenates one side's tuple blocks across a coalescible run
// into fresh, exactly-sized storage (nil when every member's side is empty;
// the inputs are caller-owned and never mutated). Each source block is
// copied exactly once.
func concatRun(run []Update, side func(Update) []Column) []Column {
	total := 0
	var proto []Column
	for _, u := range run {
		if b := side(u); len(b) > 0 && b[0].Len() > 0 {
			if proto == nil {
				proto = b
			}
			total += b[0].Len()
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]Column, len(proto))
	for ci := range out {
		if proto[ci].IsInt() {
			vals := make([]int64, 0, total)
			for _, u := range run {
				if b := side(u); len(b) > 0 {
					vals = append(vals, b[ci].Ints...)
				}
			}
			out[ci] = data.NewIntColumn(vals)
		} else {
			vals := make([]float64, 0, total)
			for _, u := range run {
				if b := side(u); len(b) > 0 {
					vals = append(vals, b[ci].Floats...)
				}
			}
			out[ci] = data.NewFloatColumn(vals)
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

// Snapshot returns the current merged snapshot as a Queryable — one
// lock-free atomic load per shard — or nil before Run has completed on
// every shard. Shard components are consistent per shard; call Wait first
// to pin a fully drained state. For the concrete *ShardedSnapshot
// (NumShards, Shard, Epochs) use Head.
func (s *ShardedSession) Snapshot() Queryable {
	if sn := s.Head(); sn != nil {
		return sn
	}
	return nil
}

// Head returns the current merged snapshot as a concrete *ShardedSnapshot
// (nil before Run has completed on every shard) — Snapshot with typed
// access to the shard components. Same lock-free acquisition contract.
func (s *ShardedSession) Head() *ShardedSnapshot {
	shards := make([]*Snapshot, len(s.sessions))
	for i, sess := range s.sessions {
		sn := sess.Head()
		if sn == nil {
			return nil
		}
		shards[i] = sn
	}
	return &ShardedSnapshot{shards: shards}
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
	if len(sn.shards) > 1 && sn.shards[0].res.Plan.Monoids[queryIdx] != nil {
		v, err := sn.MergedResult(queryIdx)
		if err != nil {
			return nil, false
		}
		i := v.Lookup(key...)
		if i < 0 {
			return nil, false
		}
		n := sn.shards[0].res.Plan.VisibleCols(queryIdx)
		out := make([]float64, n)
		for c := 0; c < n; c++ {
			out[c] = v.Val(i, c)
		}
		return out, true
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
	var v *moo.ViewData
	var err error
	if plan := sn.shards[0].res.Plan; plan.Monoids[queryIdx] != nil {
		// Monoid columns do not add across shards: merge the per-shard RAW
		// output and support views (plain count/sum views) and re-fold.
		v, err = mergeAssembled(plan, queryIdx, len(sn.shards), func(i, j int) *moo.ViewData {
			res := sn.shards[i].res
			return res.Materialized[res.Plan.OutputView[j]]
		})
	} else {
		parts := make([]*moo.ViewData, len(sn.shards))
		for i, sh := range sn.shards {
			parts[i] = sh.Result(queryIdx)
		}
		v, err = moo.CombineViews(parts)
	}
	if err != nil {
		return nil, err
	}
	sn.merged[queryIdx] = v
	return v, nil
}

// mergeAssembled merges monoid user query qi across nshards shard states.
// The assembled monoid columns themselves must never be summed, so the
// merge combines the per-shard raw output and support views — all plain
// count/sum views, which CombineViews handles exactly — and folds the
// merged supports into the user-visible view. plan is the merging plan;
// query indexes are identical across shards (plan expansion is
// deterministic on the query list), but view IDs may differ per shard
// (statistics-driven roots), which is why matView resolves plan-query j's
// output view through shard i's own plan.
func mergeAssembled(plan *core.Plan, qi, nshards int, matView func(i, j int) *moo.ViewData) (*moo.ViewData, error) {
	idxs := []int{qi}
	seen := make(map[int]bool)
	for _, col := range plan.Monoids[qi].Cols {
		if !seen[col.Support] {
			seen[col.Support] = true
			idxs = append(idxs, col.Support)
		}
	}
	mat := make([]*moo.ViewData, len(plan.Views))
	for _, j := range idxs {
		parts := make([]*moo.ViewData, nshards)
		for i := range parts {
			parts[i] = matView(i, j)
		}
		v, err := moo.CombineViews(parts)
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
	for i, sh := range sn.shards {
		if sh.requery == nil {
			return nil, fmt.Errorf("lmfao: shard %d snapshot has no requery hook", i)
		}
	}
	parts := make([]*moo.BatchResult, len(sn.shards))
	errs := make([]error, len(sn.shards))
	var wg sync.WaitGroup
	for i, sh := range sn.shards {
		wg.Add(1)
		go func(i int, sh *Snapshot) {
			defer wg.Done()
			parts[i], errs[i] = sh.requery(queries)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
	}
	plan := parts[0].Plan
	out := make([]*Result, plan.UserQueries)
	for qi := 0; qi < plan.UserQueries; qi++ {
		var v *moo.ViewData
		var err error
		if plan.Monoids[qi] != nil {
			v, err = mergeAssembled(plan, qi, len(parts), func(i, j int) *moo.ViewData {
				return parts[i].Materialized[parts[i].Plan.OutputView[j]]
			})
		} else {
			per := make([]*moo.ViewData, len(sn.shards))
			for i := range sn.shards {
				per[i] = parts[i].Results[qi]
			}
			v, err = moo.CombineViews(per)
		}
		if err != nil {
			return nil, err
		}
		out[qi] = v
	}
	return out, nil
}
