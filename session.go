package lmfao

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
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

// ApplyResult delivers an ApplyAsync outcome: the per-update maintenance
// stats and the first error, exactly as the equivalent Apply call would have
// returned them.
type ApplyResult struct {
	Stats []*ApplyStats
	Err   error
}

// ShardOptions configures NewShardedSession and NewDurableShardedSession.
type ShardOptions struct {
	// Shards is the number of partitions (and independent shard writers).
	// Must be at least 1. One shard partitions nothing: the session adopts
	// its database, as NewSession does, and Relation and Key are ignored.
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

// ShardedStats are a session's cumulative fan-out counters, reporting how
// much batching the per-shard queues achieved: Enqueued counts shard-local
// updates handed to the shard writers (after routing), Applied the updates
// actually applied after coalescing, Rounds the maintenance rounds that
// covered them. Enqueued/Rounds is the average batch size the coalescing
// achieved.
type ShardedStats struct {
	Shards   int
	Enqueued int64
	Applied  int64
	Rounds   int64
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
// Aggregates outside the sum-product semiring — MIN, MAX, COUNT DISTINCT,
// top-k (MonoidAgg) — survive deletes too: the planner compiles each one to
// an internal count-valued support view that the delta machinery maintains
// like any other view, and a delete that shrinks a group's support triggers
// a re-fold of exactly that group's monoid columns (see internal/monoid and
// the assembly layer in internal/moo).
//
// # Shards
//
// A session runs over N ≥ 1 shards, each an independent maintained state
// with its own engine, join tree and writer goroutine. With one shard the
// session adopts its database and routes, copies and merges nothing. With
// N > 1 the fact relation is hash-partitioned on a join key into N shard
// databases (dimension relations replicated; the source database is copied,
// not adopted). Updates fan out by key — a fact update routes each tuple to
// its hash shard, any other update broadcasts to every shard — and queued
// updates coalesce per shard, amortizing per-round overhead under
// high-rate streams. Snapshots merge the shards' parts on read (Snapshot).
//
// The per-shard accessors Engine, LastLSN, CrashAfterAppends and
// CrashNextCheckpoint describe shard 0; Shard(i) reaches the others.
//
// # Durability
//
// A session built with a log directory (NewDurableSession,
// NewDurableShardedSession, RecoverSession) survives process death: every
// update is appended to its shard's write-ahead log (internal/wal) and
// fsynced BEFORE it mutates the shard — log-one/apply-one, so the log is
// always exactly the sequence of updates the shard attempted, in order, and
// logged shards never coalesce — and each shard's full maintained state is
// checkpointed on the DurableOptions interval, by Run, Checkpoint and
// Close. RecoverSession rebuilds the identical session from the newest
// valid checkpoints plus a replay of the log suffixes; the kill-and-recover
// oracle in internal/oracletest proves recovery bit-exact against an
// uninterrupted twin at arbitrary crash points. A log write failure wedges
// the session (Wedged): the failed update is neither durable nor applied,
// and every later maintenance call returns the same error.
//
// # Concurrency: snapshot-isolated serving
//
// Maintenance (Run/Apply/ApplyAsync/Checkpoint) is the WRITE side: each
// call is routed and enqueued under one mutex, so every shard's writer
// receives calls in one order and commits them in that order. The engines,
// databases and join trees backing a session must not be mutated or
// scanned by anything else while it lives (do not share an engine between
// sessions). Serving is the READ side: any number of goroutines may call
// Snapshot at any time — one atomic pointer load per shard — and query the
// returned Snapshot freely while maintenance runs. Apply builds maintained
// views as fresh immutable values and publishes each committed round per
// shard atomically; published snapshots are never patched in place. Across
// shards a snapshot is a vector of per-shard states (Versions returns the
// matching ShardVector), not a single global prefix: while a broadcast
// (dimension) update is mid-fan-out, some shards may reflect it before
// others. Fact-only streams have no such window. Call Wait (or use the
// synchronous Apply) before Snapshot to observe a fully drained state.
//
// A failed maintenance round leaves the shard's last committed snapshot
// published and forces its next round to recompute from scratch.
//
// Session implements the Maintainer contract.
type Session struct {
	shards []*shard
	// key and factSchema route fact updates on N > 1 shards: the partition
	// key and a detached zero-row copy of the fact relation, so routing
	// never reads the live shard instances. Nil for one shard.
	key        []AttrID
	factSchema *data.Relation
	dir        string

	// mu orders enqueueing against Close and guards closed and sinceCkpt.
	mu     sync.Mutex
	closed bool
	// every is the automatic checkpoint interval in routed updates (≤ 0
	// for none, and always for an unlogged session); sinceCkpt counts the
	// routed updates accepted since the last checkpoint round.
	every     int
	sinceCkpt int

	enqueued atomic.Int64
}

// ShardedSession is an alias of Session, kept for callers that name
// NewShardedSession's result type.
type ShardedSession = Session

// NewSession builds an engine over db with TrackCounts enabled and prepares
// a maintainable one-shard session for the query batch, planning it once
// over db's current statistics. The session adopts db: Run reorders each
// base relation's rows into its join-tree node's plan order (the order the
// scans read, so the base is the only copy of its rows), and later updates
// keep that order. NewSession itself reorders nothing.
func NewSession(db *Database, queries []*Query, opts Options) (*Session, error) {
	return NewShardedSession(db, queries, opts, ShardOptions{Shards: 1})
}

// NewSessionWithEngine wraps an existing engine in a one-shard session; its
// options must have TrackCounts set. The engine becomes part of the
// session's write side: it must not be used concurrently with the session's
// maintenance calls, and its database is adopted as NewSession's is.
func NewSessionWithEngine(eng *Engine, queries []*Query) (*Session, error) {
	return newSession(eng.DB(), queries, func(*Database) (*Engine, error) { return eng, nil }, ShardOptions{Shards: 1}, "", DurableOptions{}, false)
}

// NewShardedSession prepares a session of so.Shards shards over the query
// batch: with more than one, it partitions db per so (fact hash-partitioned,
// everything else replicated) and leaves db itself as it is. Each shard
// gets its own engine and join tree, built with opts (TrackCounts enabled).
func NewShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions) (*ShardedSession, error) {
	return newSession(db, queries, engines(opts), so, "", DurableOptions{}, false)
}

// engines returns the shard engine constructor over opts, with
// TrackCounts enabled as maintenance needs.
func engines(opts Options) func(*Database) (*Engine, error) {
	opts.TrackCounts = true
	return func(db *Database) (*Engine, error) { return moo.NewEngine(db, opts) }
}

// newSession is the one constructor behind every preset. It adopts db for
// one shard or partitions it per so, builds each shard's engine with mk and
// plans the batch on it. With a non-empty dir every shard also gets a log
// under dir — for one shard dir itself, else dir/shard-i — with recover
// replaying the state there, whose manifest then fixes the partitioning in
// place of so, and without it refusing a dir that already holds state.
func newSession(db *Database, queries []*Query, mk func(*Database) (*Engine, error), so ShardOptions, dir string, dopts DurableOptions, recover bool) (*Session, error) {
	m := shardManifest{Shards: so.Shards}
	var err error
	switch {
	case recover && !holdsState(dir):
		err = fmt.Errorf("lmfao: %s holds no durable session state", dir)
	case recover:
		m, err = readManifest(dir)
	case so.Shards < 1:
		err = fmt.Errorf("lmfao: session needs at least 1 shard, got %d", so.Shards)
	case dir != "" && holdsState(dir):
		err = fmt.Errorf("lmfao: %s already holds durable session state; use RecoverSession", dir)
	case so.Shards > 1:
		m.Fact, m.Key, err = resolveShardFact(db, so)
	}
	s, dbs := &Session{dir: dir}, []*Database{db}
	if err == nil && m.Shards > 1 {
		dbs, err = data.PartitionDatabase(db, m.Fact, m.Key, m.Shards)
	}
	if err != nil {
		return nil, err
	}
	if m.Shards > 1 {
		s.key, s.factSchema = append([]AttrID(nil), m.Key...), db.Relation(m.Fact).GatherRows(nil)
	}
	dopts = dopts.norm()
	for i, sdb := range dbs {
		sh, err := newShard(sdb, queries, mk)
		if err == nil && dir != "" {
			var replayed int
			replayed, err = sh.openLog(shardDir(dir, i, len(dbs)), dopts, recover)
			s.sinceCkpt += replayed
		}
		if err != nil {
			s.shutdown(true)
			return nil, shardErr(i, len(dbs), err)
		}
		sh.coalesce = dir == "" && len(dbs) > 1
		s.shards = append(s.shards, sh)
	}
	if dir != "" && !recover {
		err = writeManifest(dir, m)
	}
	if err != nil {
		s.shutdown(true)
		return nil, err
	}
	if dir != "" {
		s.every = dopts.CheckpointEvery
	}
	return s, nil
}

// resolveShardFact applies ShardOptions' defaulting rules: pick the fact
// relation (largest when unnamed) and the shard key (first discrete join
// attribute when unset).
func resolveShardFact(db *Database, so ShardOptions) (string, []AttrID, error) {
	fact := db.Relation(so.Relation)
	if so.Relation == "" {
		for _, r := range db.Relations() {
			if fact == nil || r.Len() > fact.Len() {
				fact = r
			}
		}
	}
	if fact == nil {
		return "", nil, fmt.Errorf("lmfao: sharded session: no fact relation %q in the database", so.Relation)
	}
	key := so.Key
	if key == nil {
		key = defaultShardKey(db, fact)
		if key == nil {
			return "", nil, fmt.Errorf("lmfao: sharded session: relation %q has no discrete attribute to shard on", fact.Name)
		}
	}
	return fact.Name, key, nil
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

// shardErr names shard i in err when the session has more than one.
func shardErr(i, shards int, err error) error {
	if err == nil || shards == 1 {
		return err
	}
	return fmt.Errorf("lmfao: shard %d: %w", i, err)
}

// Engine returns shard 0's engine (write side: see the concurrency contract
// on Session).
func (s *Session) Engine() *Engine { return s.shards[0].eng }

// Session returns s itself, kept for callers that reach a durable
// session's reads through it.
func (s *Session) Session() *Session { return s }

// Shard returns shard i as a one-shard session (s itself when it has one
// shard) — read it (Head, Engine) freely. Writing through it directly
// bypasses routing and the session's checkpoint interval: fact tuples must
// still reach the shard they hash to. Closing it stops that shard's writer
// only.
func (s *Session) Shard(i int) *Session {
	sh := s.shards[i]
	if len(s.shards) == 1 {
		return s
	}
	return &Session{shards: []*shard{sh}, dir: sh.dir}
}

// NumShards returns the shard count.
func (s *Session) NumShards() int { return len(s.shards) }

// FactRelation returns the name of the hash-partitioned relation ("" for
// one shard).
func (s *Session) FactRelation() string {
	if s.factSchema == nil {
		return ""
	}
	return s.factSchema.Name
}

// ShardKey returns the attributes the fact relation is partitioned on (nil
// for one shard).
func (s *Session) ShardKey() []AttrID { return append([]AttrID(nil), s.key...) }

// Stats returns the cumulative fan-out counters.
func (s *Session) Stats() ShardedStats {
	st := ShardedStats{Shards: len(s.shards), Enqueued: s.enqueued.Load()}
	for _, sh := range s.shards {
		st.Applied += sh.applied.Load()
		st.Rounds += sh.rounds.Load()
	}
	return st
}

// Snapshot returns the latest committed snapshot as a Queryable, or nil
// before Run has completed on every shard. The call is lock-free and never
// blocks on in-flight maintenance; the returned snapshot stays valid and
// immutable regardless of later maintenance rounds. For the concrete
// *Snapshot (Epoch, VersionVector, Batch, Shard) use Head.
func (s *Session) Snapshot() Queryable {
	if sn := s.Head(); sn != nil {
		return sn
	}
	return nil
}

// Head returns the latest committed snapshot as a concrete *Snapshot (nil
// before Run has completed on every shard): one atomic load per shard, and
// for one shard nothing else.
func (s *Session) Head() *Snapshot {
	if len(s.shards) == 1 {
		return s.shards[0].snap.Load()
	}
	parts := make([]*Snapshot, len(s.shards))
	for i, sh := range s.shards {
		if parts[i] = sh.snap.Load(); parts[i] == nil {
			return nil
		}
	}
	return &Snapshot{parts: parts}
}

// Result returns shard 0's latest published batch result (nil before the
// first Run) — Head().Batch() without the version metadata. Like a
// snapshot, the returned result is immutable and safe to read concurrently
// with maintenance.
func (s *Session) Result() *BatchResult {
	if sn := s.shards[0].snap.Load(); sn != nil {
		return sn.res
	}
	return nil
}

// errSessionClosed is returned by maintenance calls after Close.
var errSessionClosed = errors.New("lmfao: session is closed")

// Run computes the batch from scratch on every shard (in parallel, each
// behind the updates its writer accepted earlier) and returns the new
// snapshot; it can be called again to force a full recompute everywhere.
// Each shard plans once, at construction, and every Run executes that plan.
//
// Run is atomic across shards: each shard's writer stages its recomputed
// result, and the shards publish only when all of them succeeded, so a
// failed Run changes nothing observable. On a logged session each shard
// then checkpoints, so the session is recoverable from the moment its
// first Run returns.
func (s *Session) Run() (Queryable, error) {
	if err := (<-s.submit(s.perShard(job{stage: newStagedRun(len(s.shards))}), true)).Err; err != nil {
		return nil, err
	}
	return s.Snapshot(), nil
}

// Apply is ApplyAsync plus the wait: it applies the updates to the base
// relations and maintains the cached results, and when it returns every
// involved shard has committed (and, on a logged session, fsynced per the
// SyncEvery policy) its slice, so Snapshot reflects all of them. Each shard
// applies its updates one at a time (each delta is evaluated against the
// state its predecessors produced) and publishes every committed round
// before it touches the next, so concurrent readers walk through the same
// intermediate states a single-threaded caller would observe. Relations the
// maintenance layer cannot handle incrementally trigger one full recompute
// instead.
func (s *Session) Apply(updates ...Update) ([]*ApplyStats, error) {
	res := <-s.ApplyAsync(updates...)
	return res.Stats, res.Err
}

// ApplyAsync routes the updates and enqueues each shard's slice behind
// every earlier call's, returning a buffered channel that delivers one
// result when every involved shard has finished. Readers keep serving the
// last committed snapshot throughout. Per shard, updates commit (and log)
// in call order; across shards there is no global order (see the
// consistency contract on Session). On more than one unlogged shard, queued
// updates of consecutive calls may be coalesced per shard (see
// coalesceUpdates), so the delivered Stats describe the maintenance rounds
// that covered this call's updates. On a logged session, a call that
// crosses the checkpoint interval also checkpoints every shard behind its
// round — whatever the round's outcome — and delivers after them.
//
// Error contract: a delivered Err means at least one of THIS call's updates
// did not commit on some shard — calls whose updates all landed in failed
// rounds' committed prefixes receive Err == nil even when a later queued
// update broke a round. A failed update is not atomic ACROSS shards: an
// update whose tuples route to several shards can commit its slice on some
// shards and fail on another (a delete block whose missing tuple hashes to
// one shard, say). Do not blindly re-submit a failed multi-shard update;
// reconcile against Snapshot() first, or keep delete batches shard-local
// (single-key batches route to one shard by construction).
func (s *Session) ApplyAsync(updates ...Update) <-chan ApplyResult {
	perShard, err := routeUpdates(s.factSchema, s.key, len(s.shards), updates)
	if err != nil {
		return failedCall(err)
	}
	var jobs []*job
	for i, list := range perShard {
		if list != nil || len(perShard) == 1 {
			jobs = append(jobs, &job{updates: list, shard: i})
		}
	}
	return s.submit(jobs, false)
}

// Checkpoint forces one checkpoint round, regardless of the automatic
// interval: every shard checkpoints behind all accepted work. It is a no-op
// on an unlogged session.
func (s *Session) Checkpoint() error {
	return (<-s.submit(s.perShard(job{ckpt: true}), true)).Err
}

// Wait blocks until every maintenance call accepted so far has finished
// (committed or failed) on every shard. Concurrent ApplyAsync callers make
// the drained condition a moving target: quiesce producers first.
func (s *Session) Wait() {
	for _, sh := range s.shards {
		sh.pending.Wait()
	}
}

// Close permanently stops the maintenance side after draining: work already
// accepted commits first, a logged session then writes a final checkpoint
// on every shard and closes its logs, and the writer goroutines exit.
// Further Run/Apply/ApplyAsync calls fail with ErrSessionClosed, while
// every published snapshot stays fully readable — including its Requery
// hook, which only needs the engine, not the writer. Close is idempotent and
// safe to call concurrently with readers.
func (s *Session) Close() { s.shutdown(false) }

// Kill is Close without the final checkpoints or log syncs — the shutdown
// of a simulated whole-process crash (testing): only what the fsync policy
// already committed survives on disk. Accepted-but-unprocessed jobs still
// drain through the writers (their effect is in-memory only and
// discarded). Idempotent with Close.
func (s *Session) Kill() { s.shutdown(true) }

// perShard returns one copy of j per shard.
func (s *Session) perShard(j job) []*job {
	jobs := make([]*job, len(s.shards))
	for i := range jobs {
		c := j
		c.shard = i
		jobs[i] = &c
	}
	return jobs
}

// submit is the session's one accept gate: it enqueues a call's jobs unless
// the session is closed. ck marks a call whose jobs checkpoint every shard
// (when logged), which restarts the interval; a call of update jobs that
// crosses the interval gets one checkpoint job per shard behind its round.
//
// lmfao:acquires mu
func (s *Session) submit(jobs []*job, ck bool) <-chan ApplyResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return failedCall(errSessionClosed)
	}
	for _, j := range jobs {
		s.sinceCkpt += len(j.updates)
	}
	if !ck && s.every > 0 && s.sinceCkpt >= s.every {
		jobs, ck = append(jobs, s.perShard(job{ckpt: true})...), true
	}
	if ck {
		s.sinceCkpt = 0
	}
	return s.enqueueLocked(jobs)
}

// enqueueLocked hands jobs to their shard writers as the parts of one
// result and returns its channel; mu serializes it, so every shard's queue
// receives calls in one order.
//
// lmfao:requires mu
func (s *Session) enqueueLocked(jobs []*job) <-chan ApplyResult {
	r := &asyncResult{remaining: len(jobs), shards: len(s.shards), ch: make(chan ApplyResult, 1)}
	if len(jobs) == 0 {
		r.ch <- ApplyResult{}
	}
	for _, j := range jobs {
		j.res = r
		s.enqueued.Add(int64(len(j.updates)))
		s.shards[j.shard].submit(j)
	}
	return r.ch
}

// shutdown is Close, or on kill the shutdown of a simulated whole-process
// crash: no final checkpoints, logs abandoned with only what the fsync
// policy committed.
func (s *Session) shutdown(kill bool) {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already && !kill && s.Dir() != "" {
		// The final checkpoint round, drained by the closes below.
		s.enqueueLocked(s.perShard(job{ckpt: true}))
	}
	s.mu.Unlock()
	if already {
		return
	}
	for _, sh := range s.shards {
		sh.close(kill)
	}
}

// routeUpdates splits one call's updates into per-shard update lists,
// preserving relative order: fact updates partition tuple-by-tuple via
// data.RouteDelta, every other update is broadcast to all shards (dimension
// relations are replicated). Shards left untouched by every update get a nil
// list; one shard gets the updates as they are.
func routeUpdates(factSchema *data.Relation, key []AttrID, shards int, updates []Update) ([][]Update, error) {
	if shards == 1 {
		return [][]Update{updates}, nil
	}
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

// InsertRows builds an insert-only update.
func InsertRows(relation string, cols ...Column) Update {
	return Update{Relation: relation, Inserts: cols}
}

// DeleteRows builds a delete-only update.
func DeleteRows(relation string, cols ...Column) Update {
	return Update{Relation: relation, Deletes: cols}
}
