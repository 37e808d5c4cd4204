package lmfao

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
)

// Update describes one batch of inserts and deletes against a base relation
// (columns in the relation's schema order).
type Update = data.Delta

// VersionVector maps base-relation names to the Relation.Version a served
// state reflects: two states with equal vectors were computed over identical
// base data. Every Snapshot is pinned to the vector its maintenance round
// committed.
type VersionVector = ivm.VersionVector

// ApplyStats reports what an incremental maintenance pass did. Incremental
// is false when the session had to fall back to a full recompute.
type ApplyStats struct {
	moo.ApplyStats
	Incremental bool
}

// Snapshot is one published, immutable version of a session's batch results:
// the materialized output views of every query plus the base-relation
// version vector they reflect. Snapshots are safe for unrestricted
// concurrent use — the read path performs no locking and no mutation — and
// stay fully readable while (and after) the session's writer publishes
// newer snapshots. A snapshot's memory is reclaimed by the garbage collector
// once no reader holds it; consecutive snapshots share unchanged view
// storage, so holding an old snapshot pins only what actually differed.
//
// Snapshot implements Queryable (and Requerier, when produced by a Session
// or RunQueryable): it is the unsharded read side of the serving API.
//
// lmfao:immutable-after-publish
type Snapshot struct {
	epoch    uint64
	res      *moo.BatchResult
	versions VersionVector
	// requery evaluates a fresh ad-hoc batch behind this snapshot
	// (Requerier); sessions install a hook that serializes with the writer.
	// It returns the full batch result (not just the visible views) so the
	// sharded merge path can reach the support views monoid queries need.
	requery func([]*query.Query) (*moo.BatchResult, error)
}

// Epoch returns the snapshot's publication sequence number: 1 for the first
// Run, strictly increasing with every committed maintenance round. Epochs
// order snapshots of one session; they carry no cross-session meaning.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Versions returns the snapshot's version metadata in the serving API's
// uniform shape: a one-element ShardVector holding the base-relation
// version vector the snapshot reflects (an unsharded snapshot has exactly
// one writer). The vector is shared and must be treated as read-only; for
// typed single-writer access use VersionVector.
func (sn *Snapshot) Versions() ShardVector { return ShardVector{sn.versions} }

// VersionVector returns the base-relation version vector the snapshot
// reflects. The returned map is shared and must be treated as read-only.
func (sn *Snapshot) VersionVector() VersionVector { return sn.versions }

// Batch returns the underlying batch result (read-only: the views it holds
// are shared with other snapshots and with the maintenance layer).
func (sn *Snapshot) Batch() *BatchResult { return sn.res }

// NumQueries returns the number of queries in the session batch.
func (sn *Snapshot) NumQueries() int { return len(sn.res.Results) }

// Result returns query queryIdx's materialized output (batch order), or nil
// for an index outside the batch. The view carries a trailing hidden
// tuple-count column after the query's aggregates; it is shared across
// snapshots and must not be mutated.
func (sn *Snapshot) Result(queryIdx int) *Result {
	if queryIdx < 0 || queryIdx >= len(sn.res.Results) {
		return nil
	}
	return sn.res.Results[queryIdx]
}

// Lookup returns the aggregate values for one group of query queryIdx (key
// values in the output's group-by order, which sorts attributes by ID), or
// ok=false if the group is absent or the index is outside the batch. It is
// a lock-free binary search over the output's sorted key columns and trims
// the hidden tuple-count column, so the returned row has exactly the
// query's aggregates in query order.
func (sn *Snapshot) Lookup(queryIdx int, key ...int64) ([]float64, bool) {
	return visibleRow(sn.res.Plan, queryIdx, sn.Result(queryIdx), key)
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

// Requery evaluates a fresh ad-hoc batch over the database behind this
// snapshot (the Requerier hook; LearnDecisionTreeFrom depends on it). For
// session-published snapshots the batch runs on the session's engine,
// serialized with maintenance — it never races the writer, but it reflects
// the session's current base data, which may be newer than this snapshot's
// pinned Versions; quiesce updates when exact agreement matters. Snapshots
// from RunQueryable run on the wrapped engine directly.
func (sn *Snapshot) Requery(queries []*Query) ([]*Result, error) {
	if sn.requery == nil {
		return nil, fmt.Errorf("lmfao: snapshot has no requery hook")
	}
	res, err := sn.requery(queries)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// ApplyResult delivers an ApplyAsync outcome: the per-update maintenance
// stats and the first error, exactly as the equivalent Apply call would have
// returned them.
type ApplyResult struct {
	Stats []*ApplyStats
	Err   error
}

// Session keeps a query batch's materialized view DAG alive across base-data
// updates: Run computes it once, Apply mutates the base relations and
// incrementally maintains every view — re-evaluating only the dirty subset
// of the DAG, with deletes handled as negative-weight inserts — instead of
// recomputing from scratch. Where the schedule allows it, maintenance scans
// at unchanged join-tree nodes touch only the base rows that join the
// delta's keys, via join-key indexes that are built on first use and
// patched, like the engine's sorted copies, under every later delta.
//
// Updates against a relation folded into a materialized hypertree bag are
// maintained incrementally too: the delta is joined with the bag's other
// members and applied at the bag node (ApplyStats.Bag names the bag).
//
// Output views carry a trailing hidden tuple-count column (name
// core.CountColName); aggregate columns keep their query order, so
// applications indexing columns by aggregate position are unaffected.
//
// # Concurrency: snapshot-isolated serving
//
// The session follows an MVCC-lite publication protocol. Maintenance
// (Run/Apply/ApplyAsync) is the WRITE side: calls are serialized by an
// internal mutex, so the session has one logical writer at a time; the
// engine, database and join tree backing a session must not be mutated or
// scanned by anything else while it lives (do not share an engine between
// sessions). Serving is the READ side: any number of goroutines may call
// Snapshot at any time — a single atomic pointer load — and query the
// returned Snapshot freely while maintenance runs. Apply builds maintained
// views as fresh immutable values and publishes each committed round
// atomically; published snapshots are never patched in place, so a reader
// observes either the previous round or the next one, never a partial
// state.
//
// A failed maintenance round leaves the last committed snapshot published
// (readers keep serving the older, still-consistent version) and forces the
// writer's next round to recompute from scratch.
//
// Aggregates outside the sum-product semiring — MIN, MAX, COUNT DISTINCT,
// top-k (MonoidAgg) — survive deletes too: the planner compiles each one to
// an internal count-valued support view that the delta machinery maintains
// like any other view, and a delete that shrinks a group's support triggers
// a re-fold of exactly that group's monoid columns (see internal/monoid and
// the assembly layer in internal/moo).
//
// A session has exactly one logical writer; ApplyAsync rounds queue on the
// session's writer, one goroutine started by the first of them, and commit
// in call order. When maintenance throughput on one writer becomes the
// bottleneck, ShardedSession partitions the fact relation across N
// independent sessions and merges their snapshots on read; DurableSession
// adds a write-ahead log to the writer. All implement the Maintainer
// contract (Run / Apply / ApplyAsync / Snapshot / Wait / Close), so
// serving-tier code never special-cases the shard count.
type Session struct {
	eng *Engine
	// plan is the batch's plan, built once at construction over the
	// adopted database: every recompute executes it, and recovery checks a
	// checkpoint's views against it, so a plan decision that follows
	// statistics (roots, attribute orders) never moves under updates.
	plan *core.Plan

	// writerMu serializes the maintenance side. The read side never takes
	// it: snapshot acquisition is the atomic load below.
	writerMu sync.Mutex
	// res is the writer-private maintained state (nil forces the next
	// round to recompute). It usually aliases snap's batch result.
	res *moo.BatchResult
	// epoch counts publications; writer-private (published inside the
	// Snapshot, read by readers from there).
	epoch uint64
	snap  atomic.Pointer[Snapshot]

	// w queues the session's asynchronous work and holds its Close gate.
	w writer
}

// NewSession builds an engine over db with TrackCounts enabled and prepares
// a maintainable session for the query batch, planning it once over db's
// current statistics. The session adopts db: Run reorders each base
// relation's rows into its join-tree node's plan order (the order the scans
// read, so the base is the only copy of its rows), and later updates keep
// that order. NewSession itself reorders nothing.
func NewSession(db *Database, queries []*Query, opts Options) (*Session, error) {
	opts.TrackCounts = true
	eng, err := moo.NewEngine(db, opts)
	if err != nil {
		return nil, err
	}
	return NewSessionWithEngine(eng, queries)
}

// NewSessionWithEngine wraps an existing engine; its options must have
// TrackCounts set. The engine becomes part of the session's write side: it
// must not be used concurrently with the session's maintenance calls, and
// its database is adopted as NewSession's is.
func NewSessionWithEngine(eng *Engine, queries []*Query) (*Session, error) {
	if !eng.Options().TrackCounts {
		return nil, fmt.Errorf("lmfao: session engine needs Options.TrackCounts")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("lmfao: empty session batch")
	}
	plan, err := eng.PlanBatch(queries)
	if err != nil {
		return nil, err
	}
	s := &Session{eng: eng, plan: plan}
	s.w.sess = s
	return s, nil
}

// Engine returns the session's engine (write side: see the concurrency
// contract on Session).
func (s *Session) Engine() *Engine { return s.eng }

// Snapshot returns the latest committed snapshot as a Queryable, or nil
// before the first Run. The call is lock-free (one atomic pointer load) and
// never blocks on in-flight maintenance; the returned snapshot stays valid
// and immutable regardless of later maintenance rounds. For the concrete
// *Snapshot (Epoch, VersionVector, Batch) use Head.
func (s *Session) Snapshot() Queryable {
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	return nil
}

// Head returns the latest committed snapshot as a concrete *Snapshot (nil
// before the first Run) — Snapshot with typed access to Epoch,
// VersionVector and Batch. Same lock-free publication contract.
func (s *Session) Head() *Snapshot { return s.snap.Load() }

// publishLocked commits res as the next snapshot, pinned to versions (nil
// falls back to res.Versions, then to a fresh capture). Caller holds
// writerMu.
//
// lmfao:requires writerMu
func (s *Session) publishLocked(res *moo.BatchResult, versions VersionVector) {
	if versions == nil {
		versions = res.Versions
	}
	if versions == nil {
		versions = ivm.CaptureVersions(s.eng.DB())
	}
	s.epoch++
	s.snap.Store(&Snapshot{epoch: s.epoch, res: res, versions: versions, requery: s.requeryLocked})
}

// requeryLocked is the Requery hook installed on every published snapshot:
// it runs an ad-hoc batch on the session's engine under the writer mutex,
// so requeries serialize with maintenance and with each other.
//
// lmfao:acquires writerMu
func (s *Session) requeryLocked(queries []*query.Query) (*moo.BatchResult, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	return s.eng.Run(queries)
}

// Run (re)computes the batch from scratch under the session's plan, caches
// the full view DAG and publishes it as a new snapshot, which it returns.
//
// lmfao:acquires writerMu
func (s *Session) Run() (Queryable, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.w.closed.Load() {
		return nil, errSessionClosed
	}
	if _, err := s.runLocked(nil); err != nil {
		return nil, err
	}
	return s.snap.Load(), nil
}

// errSessionClosed is returned by maintenance calls after Close.
var errSessionClosed = errors.New("lmfao: session is closed")

// restoreResult installs a recovered batch result as the session's current
// maintained state and publishes it, pinned to the result's version vector.
// WAL recovery (RecoverSession) calls it after restoring a checkpoint's
// base relations and views onto a session built over the pristine database;
// subsequent Apply calls maintain the restored state exactly as if the
// session had computed it itself.
//
// lmfao:acquires writerMu
func (s *Session) restoreResult(res *moo.BatchResult) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.res = res
	s.publishLocked(res, nil)
}

// runLocked is Run's body without the lock or the closed gate: a full
// recompute that replaces the maintained state and publishes it — if vote,
// given the recompute's outcome, approves (nil approves every success). On
// a veto the maintained state is untouched: the recompute changes no base
// contents, only the order of the rows (SortBases), which no maintained
// view depends on, and internal caches.
//
// lmfao:requires writerMu
func (s *Session) runLocked(vote func(error) bool) (bool, error) {
	res, err := s.eng.RunOwned(s.plan)
	ok := err == nil
	if vote != nil {
		ok = vote(err)
	}
	if ok {
		s.res = res
		s.publishLocked(res, nil)
	}
	return ok, err
}

// stageRun is a writer stage job's recompute: runLocked under the writer
// mutex, with the all-or-nothing vote of a sharded Run (approval implies
// success), so a failed shard never leaves readers with a mix of
// recomputed and stale shard components.
//
// lmfao:acquires writerMu
func (s *Session) stageRun(vote func(error) bool) (bool, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	return s.runLocked(vote)
}

// Result returns the latest published batch result (nil before the first
// Run) — Snapshot().Batch() without the version metadata. Like a snapshot,
// the returned result is immutable and safe to read concurrently with
// maintenance.
func (s *Session) Result() *BatchResult {
	if sn := s.snap.Load(); sn != nil {
		return sn.res
	}
	return nil
}

// Apply applies the updates to the base relations and maintains the cached
// result, one update at a time (interleaving mutation and maintenance keeps
// multi-relation batches exact: each delta is evaluated against the state
// its predecessors produced). Every committed round is published as a new
// snapshot before the next update is touched, so concurrent readers walk
// through the same intermediate states a single-threaded caller would
// observe. Relations the maintenance layer cannot handle incrementally
// trigger one full recompute instead.
//
// lmfao:acquires writerMu
func (s *Session) Apply(updates ...Update) ([]*ApplyStats, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.w.closed.Load() {
		return nil, errSessionClosed
	}
	return s.applyLocked(updates)
}

// apply is Apply without the closed gate, for the writer's jobs: rounds
// accepted before Close drain through here and commit, while new calls
// fail at the gate.
//
// lmfao:acquires writerMu
func (s *Session) apply(updates []Update) ([]*ApplyStats, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	return s.applyLocked(updates)
}

// applyLocked is Apply's body without the lock or the closed gate.
//
// lmfao:requires writerMu
func (s *Session) applyLocked(updates []Update) ([]*ApplyStats, error) {
	out := make([]*ApplyStats, 0, len(updates))
	for _, u := range updates {
		if err := s.eng.DB().ApplyDelta(u); err != nil {
			return out, err
		}
		if s.res == nil {
			// The first Run below sees the mutated base — but a relation
			// folded into a materialized hypertree bag must still sync the
			// bag, which only tracks its members through maintenance.
			if err := s.eng.SyncBagMember(u); err != nil {
				return out, err
			}
			continue
		}
		res, st, err := s.eng.Apply(s.res, u)
		switch {
		case err == nil:
			switch {
			case res != s.res:
				s.res = res
				s.publishLocked(res, nil)
			case !u.Empty():
				// The base mutated but the maintained views are unchanged
				// (e.g. a bag-member delta whose expansion joins nothing):
				// re-publish the same views pinned to the new version
				// vector, so the latest snapshot always advertises the base
				// state the completed round reflects.
				s.publishLocked(res, ivm.CaptureVersions(s.eng.DB()))
			default:
				// A truly empty update commits nothing; skip the no-op
				// publication so epochs track real commits.
			}
			out = append(out, &ApplyStats{ApplyStats: *st, Incremental: true})
		case errors.Is(err, moo.ErrNotIncremental):
			if _, err := s.runLocked(nil); err != nil {
				return out, err
			}
			out = append(out, &ApplyStats{ApplyStats: moo.ApplyStats{Relation: u.Relation,
				Inserted: u.InsertRows(), Deleted: u.DeleteRows()}, Incremental: false})
		default:
			// The base is already mutated; the cached result no longer
			// matches it. Drop the writer's cache so the next Run/Apply
			// recomputes instead of merging into stale views. The last
			// committed snapshot stays published for readers.
			s.res = nil
			return out, err
		}
	}
	if s.res == nil {
		if _, err := s.runLocked(nil); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ApplyAsync queues Apply(updates...) on the session's writer goroutine and
// returns a buffered channel that delivers the single result when the round
// finishes. Readers keep serving the last committed snapshot throughout and
// observe the new one as soon as it is published. Rounds commit in call
// order, one round per call (no coalescing), interleaved with synchronous
// Run/Apply calls in lock order.
func (s *Session) ApplyAsync(updates ...Update) <-chan ApplyResult {
	return s.w.call(&job{updates: updates})
}

// Wait blocks until every ApplyAsync round accepted so far has finished
// (committed or failed). Synchronous Apply calls need no Wait — they return
// after committing. Concurrent ApplyAsync callers make the drained
// condition a moving target: quiesce producers first.
func (s *Session) Wait() { s.w.pending.Wait() }

// Close permanently stops the maintenance side after draining: rounds
// already accepted by ApplyAsync commit first, then the writer goroutine
// exits and further Run/Apply/ApplyAsync calls fail, while every published
// snapshot (and Result) stays fully readable — including its Requery hook,
// which only needs the engine, not the writer. Close is idempotent and safe
// to call concurrently with readers.
func (s *Session) Close() { s.w.close(nil, false) }

// InsertRows builds an insert-only update.
func InsertRows(relation string, cols ...Column) Update {
	return Update{Relation: relation, Inserts: cols}
}

// DeleteRows builds a delete-only update.
func DeleteRows(relation string, cols ...Column) Update {
	return Update{Relation: relation, Deletes: cols}
}
