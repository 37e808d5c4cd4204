package lmfao

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/wal"
)

// DurableOptions configure the write-ahead logging and checkpointing of a
// DurableSession. The zero value is a sound production default:
// fsync-on-commit, a checkpoint every DefaultCheckpointEvery updates, two
// checkpoints retained.
type DurableOptions struct {
	// CheckpointEvery checkpoints after this many logged updates (0 =
	// DefaultCheckpointEvery; negative disables automatic checkpoints —
	// Close and explicit Checkpoint calls still write them). Recovery
	// re-applies at most this many log records past the newest checkpoint,
	// but it still decodes the whole log, so it does not bound restart
	// time.
	CheckpointEvery int
	// CheckpointKeep is how many recent checkpoints to retain (minimum and
	// default 2: the newest plus one fallback in case the newest is torn).
	CheckpointKeep int
	// SegmentBytes is the WAL segment rotation bound (see wal.Options).
	SegmentBytes int64
	// SyncEvery is the WAL fsync cadence (see wal.Options; 1 = every
	// commit, the default).
	SyncEvery int
}

// DefaultCheckpointEvery is the automatic checkpoint interval, in logged
// updates, used when DurableOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

func (o DurableOptions) norm() DurableOptions {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.CheckpointKeep < 2 {
		o.CheckpointKeep = 2
	}
	return o
}

func walDir(dir string) string  { return filepath.Join(dir, "wal") }
func ckptDir(dir string) string { return filepath.Join(dir, "checkpoint") }

// DurableSession is a Session whose maintained state survives process
// death: every update is appended to a write-ahead log (internal/wal) and
// fsynced BEFORE it mutates the session, and the full maintained state —
// base relations, materialized view DAG, version vector — is checkpointed
// on a configurable interval. After a crash, RecoverSession rebuilds the
// identical session from the newest valid checkpoint plus a replay of the
// log suffix through the normal Apply path; the kill-and-recover oracle in
// internal/oracletest proves the recovered state bit-exact against an
// uninterrupted twin at arbitrary crash points.
//
// DurableSession implements Maintainer. It is a Session whose writer
// carries the log: all maintenance calls funnel through that one writer
// goroutine, which owns the log-one/apply-one interleaving invariant — the
// durable log is always exactly the sequence of updates the session
// attempted, in order, so replay reproduces the live apply sequence
// verbatim. Reads are untouched: Snapshot/Head are the wrapped Session's
// lock-free snapshot publication.
//
// A WAL write failure (a real I/O error, or an injected crash in tests)
// wedges the session: the failed update was not made durable and is not
// applied, and every later maintenance call returns the same error. Recover
// from the directory; the in-memory session is disposable by design.
type DurableSession struct {
	sess *Session
	log  *wal.Log
	dir  string
	opts DurableOptions

	// sinceCkpt counts logged updates since the last checkpoint (writer
	// goroutine only); wedged holds the sticky failure that wedged the
	// writer, stored only by it and observable from any goroutine.
	sinceCkpt int
	wedged    atomic.Pointer[error]

	// failCkpt arms the pre-fsync checkpoint crash point (testing).
	failCkpt atomic.Bool
}

// NewDurableSession builds a maintained session over db whose updates are
// write-ahead logged under dir (created if missing; must not already hold
// durable session state — use RecoverSession for that). The database is
// adopted like NewSession's: the session owns it for its lifetime, and Run
// reorders each base relation's rows into its plan order. Call Run once to
// materialize and write the initial checkpoint, then stream updates through
// Apply/ApplyAsync.
func NewDurableSession(db *Database, queries []*Query, opts Options, dopts DurableOptions, dir string) (*DurableSession, error) {
	d, ck, err := openDurable(dir, db, queries, opts, dopts)
	if err != nil {
		return nil, err
	}
	if d.log.LastLSN() > 0 || ck != nil {
		d.log.Abort()
		return nil, fmt.Errorf("lmfao: %s already holds durable session state; use RecoverSession", dir)
	}
	return d, nil
}

// openDurable builds a session over db whose writer logs to dir, and
// returns it with dir's newest valid checkpoint. Opening the log truncates
// any torn or corrupt tail to the last committed prefix.
func openDurable(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableSession, *wal.Checkpoint, error) {
	sess, err := NewSession(db, queries, opts)
	if err != nil {
		return nil, nil, err
	}
	ck, err := wal.LatestCheckpoint(ckptDir(dir))
	if err != nil {
		return nil, nil, err
	}
	dopts = dopts.norm()
	log, err := wal.Open(walDir(dir), wal.Options{SegmentBytes: dopts.SegmentBytes, SyncEvery: dopts.SyncEvery})
	if err != nil {
		return nil, nil, err
	}
	d := &DurableSession{sess: sess, log: log, dir: dir, opts: dopts}
	sess.w.dur = d
	return d, ck, nil
}

// RecoverSession rebuilds a durable session from dir after a crash or a
// clean Close. The caller supplies the PRISTINE initial state — the same
// database contents, query batch and options the session was originally
// created with (the pristine-database contract): the plan is rebuilt over
// the pristine base statistics, which pins it to the exact plan the
// checkpointed views were materialized under (a session plans once, at
// construction, and runs only that plan), and every checkpointed view is
// checked against it before the checkpoint's relation contents are
// restored in place. The WAL is opened (truncating
// any torn or corrupt tail to the last committed prefix) and the records
// past the checkpoint replay through the normal Apply path, one update per
// record — the same call sequence the original session executed. With no
// valid checkpoint the session recomputes from the pristine base and
// replays the whole log.
func RecoverSession(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableSession, error) {
	d, ck, err := openDurable(dir, db, queries, opts, dopts)
	if err != nil {
		return nil, err
	}
	if d.sinceCkpt, err = replay(d.sess, ck, d.log); err != nil {
		d.log.Abort()
		return nil, err
	}
	return d, nil
}

// replay installs ck (or, with none, recomputes from the pristine base)
// and replays the log records past it, returning how many it replayed.
func replay(sess *Session, ck *wal.Checkpoint, log *wal.Log) (int, error) {
	var after uint64
	if ck != nil {
		if err := restoreCheckpoint(sess, ck); err != nil {
			return 0, err
		}
		after = ck.LSN
		log.AdvanceLSN(ck.LSN)
	} else if _, err := sess.Run(); err != nil {
		return 0, err
	}
	replayed := 0
	err := log.Replay(after, func(rec wal.Record) error {
		replayed++
		// An apply error here is the deterministic re-play of a failure the
		// live session already saw and continued past (its later rounds kept
		// logging), so replay continues to the next record just as the live
		// stream did.
		_, _ = sess.Apply(rec.Delta)
		return nil
	})
	return replayed, err
}

// restoreCheckpoint installs ck onto a freshly built session over the
// pristine database, whose plan was built at construction over pristine
// statistics: it checks every checkpointed view against that plan, then
// restores relation contents in their checkpointed sort orders, then
// publishes the checkpointed view DAG as the session's current result.
func restoreCheckpoint(sess *Session, ck *wal.Checkpoint) error {
	plan := sess.plan
	if len(ck.Views) != len(plan.Views) {
		return fmt.Errorf("lmfao: checkpoint holds %d views but the plan builds %d — recover with the session's original queries and options", len(ck.Views), len(plan.Views))
	}
	// Guard plan identity view-by-view: a checkpoint written under a
	// different plan must fail loudly here, not restore views whose layout
	// the maintenance code would silently misinterpret.
	for i, v := range ck.Views {
		if v != nil {
			if err := checkViewShape(plan, i, v); err != nil {
				return err
			}
		}
	}
	missing := map[string]*data.Relation{}
	for _, rel := range durableRelations(sess.eng) {
		missing[rel.Name] = rel
	}
	for _, rs := range ck.Relations {
		rel := missing[rs.Name]
		if rel == nil {
			return fmt.Errorf("lmfao: checkpoint restores unknown relation %q", rs.Name)
		}
		if err := rel.Restore(rs.Cols, rs.Version, rs.Order); err != nil {
			return fmt.Errorf("lmfao: restore of relation %q: %w", rs.Name, err)
		}
		delete(missing, rs.Name)
	}
	for name := range missing {
		return fmt.Errorf("lmfao: checkpoint is missing relation %q — recover with the session's original database", name)
	}
	// An LMFAOCK2 checkpoint restores every base already in its plan order,
	// so this sorts nothing; the arrival-order bases of an LMFAOCK1 one are
	// sorted here, once.
	if err := sess.eng.SortBases(plan); err != nil {
		return err
	}
	for qi, vid := range plan.OutputView {
		if ck.Views[vid] == nil {
			return fmt.Errorf("lmfao: checkpoint is missing the output view of query %d", qi)
		}
	}
	// Checkpoints persist the raw view DAG; user-visible results (including
	// monoid columns folded from support views) are re-assembled from it.
	res, err := moo.NewBatchFromMaterialized(plan, ck.Views, ck.Versions)
	if err != nil {
		return err
	}
	sess.restoreResult(res)
	return nil
}

// checkViewShape returns an error naming view i unless checkpointed view v
// has the shape plan gives it: its group-by, its column count (Stride) and
// its sort layout — the consumer key leading the sort order of an internal
// view, the whole group-by of an output.
func checkViewShape(plan *core.Plan, i int, v *moo.ViewData) error {
	pv := plan.Views[i]
	key := plan.ConsumerKeys[i]
	if pv.IsOutput() {
		key = pv.GroupBy
	}
	if slices.Equal(v.GroupBy, pv.GroupBy) && v.Stride == pv.NumCols() && slices.Equal(v.SKeyAttrs(), key) {
		return nil
	}
	var name string
	if pv.IsOutput() {
		name = fmt.Sprintf("view %d (output of query %q)", i, plan.Queries[pv.Query].Name)
	} else {
		name = fmt.Sprintf("view %d (%s → %s)", i, plan.Tree.Nodes[pv.From].Rel.Name, plan.Tree.Nodes[pv.To].Rel.Name)
	}
	return fmt.Errorf("lmfao: checkpoint %s groups by %v with %d columns sorted by %v, but the plan expects %v with %d columns sorted by %v — recover with the session's original queries and options",
		name, v.GroupBy, v.Stride, v.SKeyAttrs(), pv.GroupBy, pv.NumCols(), key)
}

// durableRelations lists what a checkpoint persists: every base relation
// plus every materialized hypertree bag. Bags live in the join tree, not the
// database; skipping them would make a recovery fold replayed member deltas
// into bags still holding their pristine contents.
func durableRelations(eng *Engine) []*data.Relation {
	rels := slices.Clip(eng.DB().Relations())
	for _, node := range eng.Tree().Nodes {
		if node.IsBag() {
			rels = append(rels, node.Rel)
		}
	}
	return rels
}

// checkpoint durably snapshots the session's current state. Writer-only.
// It syncs the log first (a checkpoint must never cover unsynced records),
// captures the relations' contents and versions plus the maintained view
// DAG, writes the checkpoint file atomically, then prunes old files.
func (d *DurableSession) checkpoint() error {
	if err := d.Wedged(); err != nil {
		return err
	}
	s := d.sess
	if s.res == nil {
		// A failed round left no maintained state; the next Run/Apply
		// recomputes and the checkpoint retries on the following interval.
		return nil
	}
	if err := d.log.Sync(); err != nil {
		d.wedge(err)
		return err
	}
	ck := &wal.Checkpoint{
		LSN:      d.log.LastLSN(),
		Versions: ivm.CaptureVersions(s.eng.DB()),
		Views:    s.res.Materialized,
	}
	for _, rel := range durableRelations(s.eng) {
		ck.Relations = append(ck.Relations, wal.RelationState{Name: rel.Name, Version: rel.Version(),
			Order: rel.SortOrder(), Cols: rel.Cols})
	}
	if err := wal.WriteCheckpoint(ckptDir(d.dir), ck, d.failCkpt.Swap(false)); err != nil {
		if errors.Is(err, wal.ErrInjectedCrash) {
			d.wedge(err)
		}
		return err
	}
	d.sinceCkpt = 0
	// The checkpoint is durable and recorded; pruning is cleanup. What it
	// cannot remove now it retries after the next checkpoint, and it never
	// fails the round that committed.
	_ = wal.PruneCheckpoints(ckptDir(d.dir), d.opts.CheckpointKeep)
	return nil
}

// Run (re)computes the batch from scratch, publishes it and writes a
// checkpoint covering it, so a session is recoverable from the moment its
// first Run returns.
func (d *DurableSession) Run() (Queryable, error) {
	if err := (<-d.sess.w.call(&job{stage: newStagedRun(1)})).Err; err != nil {
		return nil, err
	}
	return d.sess.Snapshot(), nil
}

// Apply logs and applies the updates (log-before-apply, one update at a
// time) and returns the maintenance stats, exactly like Session.Apply plus
// durability: when Apply returns, every committed update is fsynced in the
// WAL (per the SyncEvery policy).
func (d *DurableSession) Apply(updates ...Update) ([]*ApplyStats, error) {
	res := <-d.ApplyAsync(updates...)
	return res.Stats, res.Err
}

// ApplyAsync is Apply on the writer without waiting: the returned channel
// delivers the round's result once it commits (or fails). Rounds commit in
// submission order — the writer is the single writer.
func (d *DurableSession) ApplyAsync(updates ...Update) <-chan ApplyResult {
	return d.sess.ApplyAsync(updates...)
}

// Checkpoint forces a durable checkpoint of the current state, regardless
// of the automatic interval.
func (d *DurableSession) Checkpoint() error {
	return (<-d.sess.w.call(&job{ckpt: true})).Err
}

// Snapshot returns the latest committed snapshot (see Session.Snapshot);
// reads are identical to an unlogged session's.
func (d *DurableSession) Snapshot() Queryable { return d.sess.Snapshot() }

// Head returns the latest committed snapshot as a concrete *Snapshot (see
// Session.Head).
func (d *DurableSession) Head() *Snapshot { return d.sess.Head() }

// Session returns the wrapped Session for reads and introspection. Writing
// through it directly (Apply/Run) would bypass the log and break the
// recovery invariant.
func (d *DurableSession) Session() *Session { return d.sess }

// LastLSN returns the LSN of the last durably committed log record (0
// before the first logged update; after recovery, the position the
// recovered state reflects). Safe from any goroutine.
func (d *DurableSession) LastLSN() uint64 { return d.log.LastLSN() }

// Dir returns the durable state directory.
func (d *DurableSession) Dir() string { return d.dir }

// Wait blocks until every maintenance call accepted so far has finished.
func (d *DurableSession) Wait() { d.sess.Wait() }

// Close drains accepted work, writes a final checkpoint, syncs and closes
// the log, and stops the writer. Further maintenance calls fail; published
// snapshots stay readable. Idempotent.
func (d *DurableSession) Close() {
	d.sess.w.close(&job{ckpt: true, res: newAsyncResult(1), shard: -1}, false)
}

// Kill is Close without the final checkpoint or log sync — the shutdown of
// a simulated crash (testing): only what the fsync policy already
// committed survives on disk. Accepted-but-unprocessed jobs still drain
// through the writer (their effect is in-memory only and discarded).
// Idempotent with Close.
func (d *DurableSession) Kill() { d.sess.w.close(nil, true) }

// CrashAfterAppends arms the WAL writer's injected-crash point: the next n
// appends succeed, then the following one writes a torn frame prefix and
// wedges the session with wal.ErrInjectedCrash — the on-disk state of a
// process dying mid-append. Fault injection for crash-recovery testing.
func (d *DurableSession) CrashAfterAppends(n int) { d.log.CrashAfterAppends(n) }

// wedge records the sticky failure that wedged the session (writer only).
func (d *DurableSession) wedge(err error) { d.wedged.Store(&err) }

// Wedged returns the sticky error that wedged the session, or nil while it
// is healthy. A wedged session fails every further maintenance call with
// the same error while its published snapshots stay readable; recover from
// the directory. Safe for concurrent use (the serving tier maps a wedged
// maintainer to 503).
func (d *DurableSession) Wedged() error {
	if err := d.wedged.Load(); err != nil {
		return *err
	}
	return nil
}

// CrashNextCheckpoint arms the checkpoint crash point: the next checkpoint
// writes its bytes but dies before fsync/rename, leaving only a stale .tmp
// file recovery ignores, and wedges the session. Fault injection for
// crash-recovery testing.
func (d *DurableSession) CrashNextCheckpoint() { d.failCkpt.Store(true) }
