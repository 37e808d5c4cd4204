package lmfao

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
)

// fanout is the one routing layer over N shard writers: ShardedSession is
// a fanout over plain coalescing writers, DurableShardedSession the same
// fanout over logged ones. It routes each call's updates — a fact update
// tuple by tuple to its hash shard, any other update to every shard — and
// enqueues them under one mutex, so every shard's queue (and log) receives
// them in call order; gathers the shard parts into one result; stages Run
// on every shard and publishes only if all succeed; merges Head; and owns
// Wait, Close, Kill and the coordinated checkpoint trigger.
type fanout struct {
	sessions []*Session
	key      []AttrID
	// factSchema carries the fact relation's name and schema for routing: a
	// detached zero-row copy, so routing never reads the live shard
	// instances.
	factSchema *data.Relation

	// mu orders enqueueing against Close and guards closed and sinceCkpt.
	mu     sync.Mutex
	closed bool
	// durable marks a fanout over logged writers, whose Run, interval
	// trigger and Close end in a checkpoint on every shard; every is that
	// interval in routed updates, ≤ 0 for none.
	durable   bool
	every     int
	sinceCkpt int

	enqueued atomic.Int64
}

// init partitions db (data.PartitionDatabase: the fact relation
// hash-partitioned on key, everything else replicated) and builds shard i's
// session over its database with mk.
func (f *fanout) init(db *Database, fact *data.Relation, key []AttrID, shards int, mk func(i int, sdb *Database) (*Session, error)) error {
	shardDBs, err := data.PartitionDatabase(db, fact.Name, key, shards)
	if err != nil {
		return err
	}
	f.key, f.factSchema = append([]AttrID(nil), key...), fact.GatherRows(nil)
	for i, sdb := range shardDBs {
		sess, err := mk(i, sdb)
		if err != nil {
			f.shutdown(true)
			return fmt.Errorf("lmfao: shard %d: %w", i, err)
		}
		f.sessions = append(f.sessions, sess)
	}
	return nil
}

// NumShards returns the shard count.
func (f *fanout) NumShards() int { return len(f.sessions) }

// FactRelation returns the name of the hash-partitioned relation.
func (f *fanout) FactRelation() string { return f.factSchema.Name }

// ShardKey returns the attributes the fact relation is partitioned on.
func (f *fanout) ShardKey() []AttrID { return append([]AttrID(nil), f.key...) }

// Run computes the batch on every shard (in parallel, each behind the
// updates its writer accepted earlier) and returns the merged snapshot.
// Like Session.Run it can be called again to force a full recompute
// everywhere.
//
// Run is atomic across shards: each shard's writer stages its recomputed
// result, and the shard snapshots publish only when all of them succeeded.
// A failed Run therefore changes nothing observable — every shard keeps
// serving its previous snapshot, and Head never merges recomputed shards
// with stale ones. On a durable session each shard then checkpoints.
func (f *fanout) Run() (Queryable, error) {
	jobs := f.perShard(job{stage: newStagedRun(len(f.sessions))})
	if err := (<-f.submit(jobs, f.durable)).Err; err != nil {
		return nil, err
	}
	return f.Head(), nil
}

// ApplyAsync routes the updates and enqueues each shard's slice behind
// every earlier call's, returning a buffered channel that delivers one
// aggregate result when every involved shard has committed. Per shard,
// updates commit (and log) in call order; across shards there is no global
// order (see the consistency contract on ShardedSession). On a
// ShardedSession queued updates of consecutive calls may be coalesced per
// shard (see coalesceUpdates), so the delivered Stats describe the
// maintenance rounds that covered this call's updates. On a durable
// session, a call that crosses the checkpoint interval also checkpoints
// every shard behind its round — whatever the round's outcome — and
// delivers after every shard's checkpoint.
//
// Error contract: a delivered Err means at least one of THIS call's updates
// did not commit on some shard — calls whose updates all landed in failed
// rounds' committed prefixes receive Err == nil even when a later queued
// update broke a round. A failed shard keeps serving its last committed
// snapshot and recovers on its next round, like a plain Session. A failed
// update is not atomic ACROSS shards: an update whose tuples route to
// several shards can commit its slice on some shards and fail on another
// (e.g. a delete block whose missing tuple hashes to one shard — the
// siblings' slices validate independently and commit). Do not blindly
// re-submit a failed multi-shard update; reconcile against Snapshot()
// first, or keep delete batches shard-local (single-key batches route to
// one shard by construction).
func (f *fanout) ApplyAsync(updates ...Update) <-chan ApplyResult {
	perShard, err := routeUpdates(f.factSchema, f.key, len(f.sessions), updates)
	if err != nil {
		return failedCall(err)
	}
	var jobs []*job
	for sh, list := range perShard {
		if list != nil {
			jobs = append(jobs, &job{updates: list, shard: sh})
		}
	}
	return f.submit(jobs, false)
}

// Apply is ApplyAsync plus the wait: when it returns, every involved shard
// has committed its slice of the updates, so Snapshot reflects all of them.
func (f *fanout) Apply(updates ...Update) ([]*ApplyStats, error) {
	res := <-f.ApplyAsync(updates...)
	return res.Stats, res.Err
}

// perShard returns one copy of j per shard.
func (f *fanout) perShard(j job) []*job {
	jobs := make([]*job, len(f.sessions))
	for i := range jobs {
		c := j
		c.shard = i
		jobs[i] = &c
	}
	return jobs
}

// submit is the fanout's one accept gate: it enqueues a call's jobs unless
// the session is closed. ck marks a call whose jobs checkpoint every shard,
// which restarts the interval; a call of update jobs that crosses the
// interval gets one checkpoint job per shard behind its round.
func (f *fanout) submit(jobs []*job, ck bool) <-chan ApplyResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return failedCall(errSessionClosed)
	}
	for _, j := range jobs {
		f.sinceCkpt += len(j.updates)
	}
	if !ck && f.durable && f.every > 0 && f.sinceCkpt >= f.every {
		jobs, ck = append(jobs, f.perShard(job{ckpt: true})...), true
	}
	if ck {
		f.sinceCkpt = 0
	}
	return f.enqueueLocked(jobs)
}

// enqueueLocked hands jobs to their shard writers as the parts of one
// result and returns its channel; mu serializes it, so every shard's queue
// receives calls in one order.
//
// lmfao:requires mu
func (f *fanout) enqueueLocked(jobs []*job) <-chan ApplyResult {
	r := newAsyncResult(len(jobs))
	if len(jobs) == 0 {
		r.ch <- ApplyResult{}
	}
	for _, j := range jobs {
		j.res = r
		f.enqueued.Add(int64(len(j.updates)))
		f.sessions[j.shard].w.submit(j)
	}
	return r.ch
}

// Snapshot returns the current merged snapshot as a Queryable — one
// lock-free atomic load per shard — or nil before Run has completed on
// every shard. Shard components are consistent per shard; call Wait first
// to pin a fully drained state. For the concrete *ShardedSnapshot
// (NumShards, Shard, Epochs) use Head.
func (f *fanout) Snapshot() Queryable {
	if sn := f.Head(); sn != nil {
		return sn
	}
	return nil
}

// Head returns the current merged snapshot as a concrete *ShardedSnapshot
// (nil before Run has completed on every shard) — Snapshot with typed
// access to the shard components. Same lock-free acquisition contract.
func (f *fanout) Head() *ShardedSnapshot {
	shards := make([]*Snapshot, len(f.sessions))
	for i, sess := range f.sessions {
		if shards[i] = sess.Head(); shards[i] == nil {
			return nil
		}
	}
	return &ShardedSnapshot{shards: shards}
}

// Wait blocks until every update accepted so far has been applied and
// committed on its shard. Concurrent ApplyAsync callers make the drained
// condition a moving target — quiesce producers first.
func (f *fanout) Wait() {
	for _, sess := range f.sessions {
		sess.Wait()
	}
}

// Close drains every shard's accepted work and stops its writer. Further
// maintenance calls fail; snapshots and shard sessions stay readable. On a
// durable session each shard drains into a final checkpoint. Idempotent.
func (f *fanout) Close() { f.shutdown(false) }

// shutdown is Close, or on kill the shutdown of a simulated whole-process
// crash: no final checkpoints, logs abandoned with only what the fsync
// policy committed.
func (f *fanout) shutdown(kill bool) {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	if !already && f.durable && !kill {
		// The final checkpoint round, drained by the closes below.
		f.enqueueLocked(f.perShard(job{ckpt: true}))
	}
	f.mu.Unlock()
	if already {
		return
	}
	for _, sess := range f.sessions {
		sess.w.close(nil, kill)
	}
}
