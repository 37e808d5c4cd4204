package lmfao

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/wal"
)

// shard is one shard of a Session: its maintained state, the one writer
// loop that maintains it — a FIFO of jobs (update lists, staged full
// recomputes and checkpoints) drained by a goroutine started by the first
// job — and, on a logged session, its write-ahead log. The writer owns the
// accept gate (jobs accepted before close still run), per-job error
// attribution, coalescing, and log-before-apply.
type shard struct {
	eng *Engine
	// plan is the batch's plan, built once at construction over the
	// adopted database: every recompute executes it, and recovery checks a
	// checkpoint's views against it, so a plan decision that follows
	// statistics (roots, attribute orders) never moves under updates.
	plan *core.Plan

	// writerMu serializes maintenance with requeries. The read side never
	// takes it: snapshot acquisition is the atomic load below.
	writerMu sync.Mutex
	// res is the writer-private maintained state (nil forces the next
	// round to recompute). It usually aliases snap's batch result.
	res *moo.BatchResult
	// epoch counts publications; writer-private (published inside the
	// Snapshot, read by readers from there).
	epoch uint64
	snap  atomic.Pointer[Snapshot]

	// coalesce folds the update jobs queued behind a running round into one
	// maintenance round (unlogged shards of a multi-shard session only:
	// logged shards replay one record per update, so they never coalesce).
	coalesce bool
	// closeMu orders submissions (read lock) against close flipping closed
	// (write lock), so no job is ever sent on a closed queue.
	closeMu sync.RWMutex
	closed  atomic.Bool
	start   sync.Once
	jobs    chan *job
	pending sync.WaitGroup // accepted jobs not yet delivered (Wait)
	exited  sync.WaitGroup // the loop goroutine
	// rounds and applied count maintenance rounds and the (coalesced)
	// updates they applied, for ShardedStats.
	rounds, applied atomic.Int64

	// log is the shard's write-ahead log under dir (nil when unlogged),
	// keeping keep checkpoints. wedged holds the sticky failure that wedged
	// the writer, stored only by it and observable from any goroutine;
	// failCkpt arms the pre-fsync checkpoint crash point (testing).
	log      *wal.Log
	dir      string
	keep     int
	wedged   atomic.Pointer[error]
	failCkpt atomic.Bool
}

// newShard builds an engine over db with mk and plans the batch on it, over
// db's current statistics.
func newShard(db *Database, queries []*Query, mk func(*Database) (*Engine, error)) (*shard, error) {
	eng, err := mk(db)
	if err != nil {
		return nil, err
	}
	if !eng.Options().TrackCounts {
		return nil, errors.New("lmfao: session engine needs Options.TrackCounts")
	}
	if len(queries) == 0 {
		return nil, errors.New("lmfao: empty session batch")
	}
	plan, err := eng.PlanBatch(queries)
	if err != nil {
		return nil, err
	}
	return &shard{eng: eng, plan: plan}, nil
}

// publishLocked commits res as the next snapshot, pinned to versions (nil
// falls back to res.Versions, then to a fresh capture).
//
// lmfao:requires writerMu
func (sh *shard) publishLocked(res *moo.BatchResult, versions VersionVector) {
	if versions == nil {
		versions = res.Versions
	}
	if versions == nil {
		versions = ivm.CaptureVersions(sh.eng.DB())
	}
	sh.epoch++
	sh.snap.Store(newPart(sh.epoch, res, versions, sh.requeryLocked))
}

// requeryLocked is the Requery hook installed on every published snapshot:
// it runs an ad-hoc batch on the shard's engine under the writer mutex, so
// requeries serialize with maintenance and with each other.
//
// lmfao:acquires writerMu
func (sh *shard) requeryLocked(queries []*query.Query) (*moo.BatchResult, error) {
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	return sh.eng.Run(queries)
}

// runLocked is a full recompute that replaces the maintained state and
// publishes it — if vote, given the recompute's outcome, approves (nil
// approves every success). On a veto the maintained state is untouched: the
// recompute changes no base contents, only the order of the rows
// (SortBases), which no maintained view depends on, and internal caches.
//
// lmfao:requires writerMu
func (sh *shard) runLocked(vote func(error) bool) (bool, error) {
	res, err := sh.eng.RunOwned(sh.plan)
	ok := err == nil
	if vote != nil {
		ok = vote(err)
	}
	if ok {
		sh.res = res
		sh.publishLocked(res, nil)
	}
	return ok, err
}

// stageRun is runLocked under the writer mutex: a stage job's recompute,
// with the all-or-nothing vote of a multi-shard Run (approval implies
// success), or recovery's recompute with none.
//
// lmfao:acquires writerMu
func (sh *shard) stageRun(vote func(error) bool) (bool, error) {
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	return sh.runLocked(vote)
}

// apply applies the updates to the base relations and maintains the cached
// result, one update at a time, publishing every committed round before
// the next update is touched; it stops at the first failing update.
//
// lmfao:acquires writerMu
func (sh *shard) apply(updates []Update) ([]*ApplyStats, error) {
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	out := make([]*ApplyStats, 0, len(updates))
	for _, u := range updates {
		if err := sh.eng.DB().ApplyDelta(u); err != nil {
			return out, err
		}
		if sh.res == nil {
			// The first Run below sees the mutated base — but a relation
			// folded into a materialized hypertree bag must still sync the
			// bag, which only tracks its members through maintenance.
			if err := sh.eng.SyncBagMember(u); err != nil {
				return out, err
			}
			continue
		}
		res, st, err := sh.eng.Apply(sh.res, u)
		switch {
		case err == nil:
			switch {
			case res != sh.res:
				sh.res = res
				sh.publishLocked(res, nil)
			case !u.Empty():
				// The base mutated but the maintained views are unchanged
				// (e.g. a bag-member delta whose expansion joins nothing):
				// re-publish the same views pinned to the new version
				// vector, so the latest snapshot always advertises the base
				// state the completed round reflects.
				sh.publishLocked(res, ivm.CaptureVersions(sh.eng.DB()))
			default:
				// A truly empty update commits nothing; skip the no-op
				// publication so epochs track real commits.
			}
			out = append(out, &ApplyStats{ApplyStats: *st, Incremental: true})
		case errors.Is(err, moo.ErrNotIncremental):
			if _, err := sh.runLocked(nil); err != nil {
				return out, err
			}
			out = append(out, &ApplyStats{ApplyStats: moo.ApplyStats{Relation: u.Relation,
				Inserted: u.InsertRows(), Deleted: u.DeleteRows()}, Incremental: false})
		default:
			// The base is already mutated; the cached result no longer
			// matches it. Drop the writer's cache so the next round
			// recomputes instead of merging into stale views. The last
			// committed snapshot stays published for readers.
			sh.res = nil
			return out, err
		}
	}
	if sh.res == nil {
		if _, err := sh.runLocked(nil); err != nil {
			return out, err
		}
	}
	return out, nil
}

// job is one unit of a writer's queue: an update list, a staged full
// recompute (stage) or a checkpoint (ckpt). Its outcome is one part of res.
type job struct {
	updates []Update
	stage   *stagedRun
	ckpt    bool
	res     *asyncResult
	// shard is the index of the job's shard in its session.
	shard int
}

func (j *job) isUpdate() bool { return j.stage == nil && !j.ckpt }

// failedCall returns a result channel already holding err.
func failedCall(err error) <-chan ApplyResult {
	ch := make(chan ApplyResult, 1)
	ch <- ApplyResult{Err: err}
	return ch
}

// submit accepts j, or answers it with errSessionClosed once the writer is
// closed.
//
// lmfao:acquires closeMu.R
func (sh *shard) submit(j *job) {
	sh.closeMu.RLock()
	defer sh.closeMu.RUnlock()
	if !sh.closed.Load() {
		sh.start.Do(func() {
			// Deep enough that producers run ahead of a round in flight —
			// the jobs queued behind it are what a writer coalesces — while
			// a burst beyond it blocks the producer instead of growing
			// memory.
			sh.jobs = make(chan *job, 256)
			sh.exited.Add(1)
			go sh.loop()
		})
		sh.pending.Add(1)
		sh.jobs <- j
		return
	}
	if j.stage != nil {
		j.stage.done(errSessionClosed)
	}
	j.res.deliver(j, nil, errSessionClosed)
}

// close shuts the gate, drains the queue and stops the loop. A logged
// writer then closes its log, or on kill abandons it with only what the
// fsync policy committed — the shutdown of a simulated crash. Idempotent.
//
// lmfao:acquires closeMu
func (sh *shard) close(kill bool) {
	sh.closeMu.Lock()
	already := sh.closed.Swap(true)
	sh.closeMu.Unlock()
	if already {
		return
	}
	sh.start.Do(func() {}) // a writer never started stays so
	if sh.jobs != nil {
		close(sh.jobs)
		sh.exited.Wait()
	}
	if sh.log != nil && kill {
		_ = sh.log.Abort()
	} else if sh.log != nil {
		_ = sh.log.Close()
	}
}

func (sh *shard) loop() {
	defer sh.exited.Done()
	for j := range sh.jobs {
		batch := []*job{j}
		// Greedy drain: updates queued while the last round ran join this
		// one. Only this goroutine receives, so a non-empty queue never
		// blocks.
		for sh.coalesce && len(sh.jobs) > 0 {
			batch = append(batch, <-sh.jobs)
		}
		for len(batch) > 0 {
			n := 1
			for n < len(batch) && batch[0].isUpdate() && batch[n].isUpdate() {
				n++
			}
			sh.do(batch[:n])
			batch = batch[n:]
		}
	}
}

// do runs one round — consecutive update jobs as one maintenance round, or
// one stage or checkpoint job — and delivers every job's part.
//
// On a failed round the error reaches only the jobs whose updates did not
// all commit: maintain stops at the first failing (coalesced) update and
// returns stats for the committed prefix, and each update is all-or-nothing
// (block validation precedes mutation), so a job committed exactly when
// every update it fed into lies in that prefix. Contributors ascend across
// coalesced updates, so every job below the failing update's first
// contributor committed; that contributor and every later job did not. An
// error without an identifiable failing update (the trailing recompute
// failed, or the checkpoint) taints all.
func (sh *shard) do(batch []*job) {
	defer sh.pending.Add(-len(batch))
	if j := batch[0]; !j.isUpdate() {
		j.res.deliver(j, nil, sh.barrier(j))
		return
	}
	var updates []Update
	var owner []int // source job index, parallel to updates
	for ji, j := range batch {
		for _, u := range j.updates {
			updates = append(updates, u)
			owner = append(owner, ji)
		}
	}
	firstJob := owner
	if sh.coalesce {
		updates, firstJob = coalesceUpdates(updates, owner)
	}
	stats, err := sh.maintain(updates)
	sh.rounds.Add(1)
	sh.applied.Add(int64(len(updates)))
	okThrough := len(batch)
	if err != nil {
		okThrough = 0
		if len(stats) < len(updates) {
			okThrough = firstJob[len(stats)]
		}
	}
	for ji, j := range batch {
		if ji < okThrough {
			j.res.deliver(j, stats, nil)
		} else {
			j.res.deliver(j, stats, err)
		}
	}
}

// maintain applies one round's updates. A logged writer processes them
// strictly one at a time, each appended (and fsynced, per policy) to the
// WAL before it touches the shard — log-before-apply — so the log is
// always exactly the sequence of updates the shard attempted, in order:
// the invariant recovery's replay depends on. A log failure wedges the
// writer: the update never became durable, so neither it nor anything after
// it applies. A deterministic apply failure of a logged update is fine —
// replay reproduces it — and ends the round at the first error.
func (sh *shard) maintain(updates []Update) ([]*ApplyStats, error) {
	if sh.log == nil {
		return sh.apply(updates)
	}
	if err := sh.wedged.Load(); err != nil {
		return nil, *err
	}
	var out []*ApplyStats
	for _, u := range updates {
		if _, err := sh.log.Append(u); err != nil {
			sh.wedge(err)
			return out, err
		}
		stats, err := sh.apply([]Update{u})
		out = append(out, stats...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// barrier runs a stage or checkpoint job. A stage computes the batch from
// scratch, waits until every shard of the stage has computed, and publishes
// only if all of them succeeded. On a logged writer both end in a
// checkpoint.
func (sh *shard) barrier(j *job) error {
	if j.stage != nil {
		if ok, err := sh.stageRun(j.stage.vote); !ok {
			return err
		}
	}
	return sh.checkpoint()
}

// stagedRun makes one full recompute all-or-nothing across shards: each
// stages its result, then every shard publishes only if all staged.
type stagedRun struct {
	wg     sync.WaitGroup
	failed atomic.Bool
}

func newStagedRun(shards int) *stagedRun {
	st := &stagedRun{}
	st.wg.Add(shards)
	return st
}

// done records one shard's staging outcome.
func (st *stagedRun) done(err error) {
	if err != nil {
		st.failed.Store(true)
	}
	st.wg.Done()
}

// vote records one shard's staging outcome, waits for every other shard's
// and reports whether all of them succeeded.
func (st *stagedRun) vote(err error) bool {
	st.done(err)
	st.wg.Wait()
	return !st.failed.Load()
}

// asyncResult gathers the parts of one maintenance call — one job per
// shard it reached — into a single ApplyResult.
type asyncResult struct {
	mu        sync.Mutex
	remaining int
	shards    int // the session's shard count, for error attribution
	out       ApplyResult
	ch        chan ApplyResult
}

// deliver folds one job's part into the call's result; the last part sends
// it.
func (r *asyncResult) deliver(j *job, stats []*ApplyStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.Stats = append(r.out.Stats, stats...)
	if err != nil && r.out.Err == nil {
		r.out.Err = shardErr(j.shard, r.shards, err)
	}
	if r.remaining--; r.remaining > 0 {
		return
	}
	r.ch <- r.out
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
