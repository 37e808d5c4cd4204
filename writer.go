package lmfao

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// writer is the one maintenance job loop behind every session kind: a FIFO
// of jobs — update lists, staged full recomputes and checkpoints — drained
// by one goroutine per Session, started by the first submitted job. It owns
// the accept gate (jobs accepted before close still run), per-job error
// attribution, coalescing for ShardedSession shards, and the write-ahead
// log hook of a DurableSession: append before apply, wedge on failure.
//
// Session embeds one; DurableSession is a Session whose writer carries a
// log, and both sharded kinds are a fanout over N such writers.
type writer struct {
	sess *Session
	// coalesce folds the update jobs queued behind a running round into one
	// maintenance round (ShardedSession shards only: logged writers replay
	// one record per update, so they never coalesce).
	coalesce bool
	// dur is the log and checkpoint hook; nil for an unlogged writer.
	dur *DurableSession

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
}

// job is one unit of a writer's queue: an update list, a staged full
// recompute (stage) or a checkpoint (ckpt). Its outcome is one part of res.
type job struct {
	updates []Update
	stage   *stagedRun
	ckpt    bool
	res     *asyncResult
	// shard is the job's writer index in a fanout call, -1 for a call on
	// one writer.
	shard int
}

func (j *job) isUpdate() bool { return j.stage == nil && !j.ckpt }

// call submits j as a one-part call and returns its result channel; a
// closed writer answers errSessionClosed there.
func (w *writer) call(j *job) <-chan ApplyResult {
	j.res, j.shard = newAsyncResult(1), -1
	w.submit(j)
	return j.res.ch
}

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
func (w *writer) submit(j *job) {
	w.closeMu.RLock()
	defer w.closeMu.RUnlock()
	if !w.closed.Load() {
		w.enqueue(j)
		return
	}
	if j.stage != nil {
		j.stage.done(errSessionClosed)
	}
	j.res.deliver(j, nil, errSessionClosed)
}

// enqueue queues j, starting the loop on first use.
func (w *writer) enqueue(j *job) {
	w.start.Do(func() {
		// Deep enough that producers run ahead of a round in flight — the
		// jobs queued behind it are what a shard writer coalesces — while a
		// burst beyond it blocks the producer instead of growing memory.
		w.jobs = make(chan *job, 256)
		w.exited.Add(1)
		go w.loop()
	})
	w.pending.Add(1)
	w.jobs <- j
}

// close shuts the gate, runs final (if any) behind every accepted job,
// drains the queue and stops the loop. A logged writer then closes its log,
// or on kill abandons it with only what the fsync policy committed — the
// shutdown of a simulated crash. Idempotent.
//
// lmfao:acquires closeMu
func (w *writer) close(final *job, kill bool) {
	w.closeMu.Lock()
	already := w.closed.Swap(true)
	w.closeMu.Unlock()
	if already {
		return
	}
	if final != nil {
		w.enqueue(final)
	}
	w.start.Do(func() {}) // a writer never started stays so
	if w.jobs != nil {
		close(w.jobs)
		w.exited.Wait()
	}
	if d := w.dur; d != nil && kill {
		_ = d.log.Abort()
	} else if d != nil {
		_ = d.log.Close()
	}
}

func (w *writer) loop() {
	defer w.exited.Done()
	for j := range w.jobs {
		batch := []*job{j}
		// Greedy drain: updates queued while the last round ran join this
		// one. Only this goroutine receives, so a non-empty queue never
		// blocks.
		for w.coalesce && len(w.jobs) > 0 {
			batch = append(batch, <-w.jobs)
		}
		for len(batch) > 0 {
			n := 1
			for n < len(batch) && batch[0].isUpdate() && batch[n].isUpdate() {
				n++
			}
			w.do(batch[:n])
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
func (w *writer) do(batch []*job) {
	defer w.pending.Add(-len(batch))
	if j := batch[0]; !j.isUpdate() {
		j.res.deliver(j, nil, w.barrier(j))
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
	if w.coalesce {
		updates, firstJob = coalesceUpdates(updates, owner)
	}
	stats, err := w.maintain(updates)
	w.rounds.Add(1)
	w.applied.Add(int64(len(updates)))
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
// WAL before it touches the session — log-before-apply — so the log is
// always exactly the sequence of updates the session attempted, in order:
// the invariant recovery's replay depends on. A log failure wedges the
// writer: the update never became durable, so neither it nor anything after
// it applies. A deterministic apply failure of a logged update is fine —
// replay reproduces it — and ends the round like Session.Apply's
// stop-at-first-error contract. A round that reaches the automatic interval
// ends in a checkpoint.
func (w *writer) maintain(updates []Update) ([]*ApplyStats, error) {
	d := w.dur
	if d == nil {
		return w.sess.apply(updates)
	}
	if err := d.Wedged(); err != nil {
		return nil, err
	}
	var out []*ApplyStats
	for _, u := range updates {
		if _, err := d.log.Append(u); err != nil {
			d.wedge(err)
			return out, err
		}
		stats, err := w.sess.apply([]Update{u})
		out = append(out, stats...)
		d.sinceCkpt++
		if err != nil {
			return out, err
		}
	}
	if every := d.opts.CheckpointEvery; every > 0 && d.sinceCkpt >= every {
		return out, d.checkpoint()
	}
	return out, nil
}

// barrier runs a stage or checkpoint job. A stage computes the batch from
// scratch, waits until every writer of the stage has computed, and
// publishes only if all of them succeeded. On a logged writer both end in
// a checkpoint.
func (w *writer) barrier(j *job) error {
	if j.stage != nil {
		if ok, err := w.sess.stageRun(j.stage.vote); !ok || w.dur == nil {
			return err
		}
	}
	return w.dur.checkpoint()
}

// stagedRun makes one full recompute all-or-nothing across writers: each
// stages its result, then every writer publishes only if all staged.
type stagedRun struct {
	wg     sync.WaitGroup
	failed atomic.Bool
}

func newStagedRun(writers int) *stagedRun {
	st := &stagedRun{}
	st.wg.Add(writers)
	return st
}

// done records one writer's staging outcome.
func (st *stagedRun) done(err error) {
	if err != nil {
		st.failed.Store(true)
	}
	st.wg.Done()
}

// vote records one writer's staging outcome, waits for every other
// writer's and reports whether all of them succeeded.
func (st *stagedRun) vote(err error) bool {
	st.done(err)
	st.wg.Wait()
	return !st.failed.Load()
}

// asyncResult gathers the parts of one maintenance call — one job per
// writer it reached — into a single ApplyResult.
type asyncResult struct {
	mu        sync.Mutex
	remaining int
	out       ApplyResult
	ch        chan ApplyResult
}

func newAsyncResult(parts int) *asyncResult {
	return &asyncResult{remaining: parts, ch: make(chan ApplyResult, 1)}
}

// deliver folds one job's part into the call's result; the last part sends
// it.
func (r *asyncResult) deliver(j *job, stats []*ApplyStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && j.shard >= 0 {
		err = fmt.Errorf("lmfao: shard %d: %w", j.shard, err)
	}
	r.out.Stats = append(r.out.Stats, stats...)
	if err != nil && r.out.Err == nil {
		r.out.Err = err
	}
	if r.remaining--; r.remaining > 0 {
		return
	}
	r.ch <- r.out
}
