package lmfao

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/wal"
)

// DurableOptions configure the write-ahead logging and checkpointing of a
// logged session. The zero value is a sound production default:
// fsync-on-commit, a checkpoint every DefaultCheckpointEvery updates, two
// checkpoints retained.
type DurableOptions struct {
	// CheckpointEvery checkpoints every shard after this many routed
	// updates, counted at the session across shards (0 =
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

// DefaultCheckpointEvery is the automatic checkpoint interval, in routed
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

// DurableSession is an alias of Session, kept for callers that name the
// result type of NewDurableSession, NewDurableShardedSession and
// RecoverSession: sessions that write ahead (see Durability on Session).
type DurableSession = Session

// shardManifest is the durable record of a session's partitioning
// (dir/MANIFEST.json), without which a recovery could not re-partition the
// pristine database identically. One shard records no fact relation or key.
type shardManifest struct {
	Shards int      `json:"shards"`
	Fact   string   `json:"fact,omitempty"`
	Key    []AttrID `json:"key,omitempty"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST.json") }

// shardDir is shard i's directory of a session of n shards: dir itself for
// one shard, dir/shard-i otherwise.
func shardDir(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// holdsState reports whether dir holds a manifest or a one-shard log.
func holdsState(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	_, werr := os.Stat(walDir(dir))
	return err == nil || werr == nil
}

// NewDurableSession builds a one-shard session over db whose updates are
// write-ahead logged under dir (created if missing; must not already hold
// durable session state — use RecoverSession for that). The database is
// adopted like NewSession's. Call Run once to materialize and write the
// initial checkpoint, then stream updates through Apply/ApplyAsync.
func NewDurableSession(db *Database, queries []*Query, opts Options, dopts DurableOptions, dir string) (*DurableSession, error) {
	return NewDurableShardedSession(db, queries, opts, ShardOptions{Shards: 1}, dopts, dir)
}

// NewDurableShardedSession builds a session of so.Shards shards over db,
// as NewShardedSession does, whose shards write ahead under dir — dir
// itself for one shard, dir/shard-i otherwise — and records the
// partitioning in dir/MANIFEST.json. dir must not already hold a manifest
// or a one-shard log; use RecoverSession for that.
func NewDurableShardedSession(db *Database, queries []*Query, opts Options, so ShardOptions, dopts DurableOptions, dir string) (*DurableSession, error) {
	return newSession(db, queries, engines(opts), so, dir, dopts, false)
}

// RecoverSession rebuilds a durable session from dir after a crash or a
// clean Close. Its manifest fixes the shard count and partitioning (a dir
// without one but with a log holds a one-shard session; a dir with neither
// is an error). The caller supplies the PRISTINE
// initial state — the same database contents, query batch and options the
// session was originally created with (the pristine-database contract):
// the manifest re-partitions the pristine base exactly as creation did, and
// each shard's plan is rebuilt over its pristine base statistics, which
// pins it to the exact plan the checkpointed views were materialized under
// (a shard plans once, at construction, and runs only that plan). Every
// checkpointed view is checked against it before the checkpoint's relation
// contents are restored in place. Each shard's WAL is opened (truncating
// any torn or corrupt tail to the last committed prefix) and the records
// past its checkpoint replay through the normal apply path, one update per
// record — the same call sequence the original shard executed. With no
// valid checkpoint the shard recomputes from the pristine base and replays
// its whole log. The checkpoint interval resumes from the replayed records.
func RecoverSession(dir string, db *Database, queries []*Query, opts Options, dopts DurableOptions) (*DurableSession, error) {
	return newSession(db, queries, engines(opts), ShardOptions{}, dir, dopts, true)
}

// openLog gives sh a log under dir: a fresh one, or with recover the one
// there, replayed past dir's newest valid checkpoint — installed first, or
// with none, a recompute from the pristine base. It returns the number of
// records replayed.
func (sh *shard) openLog(dir string, dopts DurableOptions, recover bool) (replayed int, err error) {
	var ck *wal.Checkpoint
	if recover {
		if ck, err = wal.LatestCheckpoint(ckptDir(dir)); err != nil {
			return 0, err
		}
	}
	if sh.log, err = wal.Open(walDir(dir), wal.Options{SegmentBytes: dopts.SegmentBytes, SyncEvery: dopts.SyncEvery}); err != nil {
		return 0, err
	}
	sh.dir, sh.keep = dir, dopts.CheckpointKeep
	var after uint64
	switch {
	case !recover:
		return 0, nil
	case ck != nil:
		after, err = ck.LSN, sh.restoreCheckpoint(ck)
		sh.log.AdvanceLSN(after)
	default:
		_, err = sh.stageRun(nil)
	}
	if err == nil {
		err = sh.log.Replay(after, func(rec wal.Record) error {
			replayed++
			// An apply error here is the deterministic re-play of a failure
			// the live session already saw and continued past (its later
			// rounds kept logging), so replay continues to the next record
			// just as the live stream did.
			_, _ = sh.apply([]Update{rec.Delta})
			return nil
		})
	}
	if err != nil {
		_ = sh.log.Abort()
	}
	return replayed, err
}

// restoreCheckpoint installs ck onto a freshly built shard over the
// pristine database, whose plan was built at construction over pristine
// statistics: it checks every checkpointed view against that plan, then
// restores relation contents in their checkpointed sort orders, then
// publishes the checkpointed view DAG as the session's current result.
func (sh *shard) restoreCheckpoint(ck *wal.Checkpoint) error {
	plan := sh.plan
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
	for _, rel := range durableRelations(sh.eng) {
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
	if err := sh.eng.SortBases(plan); err != nil {
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
	sh.writerMu.Lock()
	defer sh.writerMu.Unlock()
	sh.res = res
	sh.publishLocked(res, nil)
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

// checkpoint durably snapshots the shard's current state. Writer-only; a
// no-op on an unlogged shard. It syncs the log first (a checkpoint must
// never cover unsynced records), captures the relations' contents and
// versions plus the maintained view DAG, writes the checkpoint file
// atomically, then prunes old files.
func (sh *shard) checkpoint() error {
	if sh.log == nil {
		return nil
	}
	if err := sh.wedged.Load(); err != nil {
		return *err
	}
	if sh.res == nil {
		// A failed round left no maintained state; the next round
		// recomputes and the checkpoint retries on the following interval.
		return nil
	}
	if err := sh.log.Sync(); err != nil {
		sh.wedge(err)
		return err
	}
	ck := &wal.Checkpoint{
		LSN:      sh.log.LastLSN(),
		Versions: ivm.CaptureVersions(sh.eng.DB()),
		Views:    sh.res.Materialized,
	}
	for _, rel := range durableRelations(sh.eng) {
		ck.Relations = append(ck.Relations, wal.RelationState{Name: rel.Name, Version: rel.Version(),
			Order: rel.SortOrder(), Cols: rel.Cols})
	}
	if err := wal.WriteCheckpoint(ckptDir(sh.dir), ck, sh.failCkpt.Swap(false)); err != nil {
		if errors.Is(err, wal.ErrInjectedCrash) {
			sh.wedge(err)
		}
		return err
	}
	// The checkpoint is durable and recorded; pruning is cleanup. What it
	// cannot remove now it retries after the next checkpoint, and it never
	// fails the round that committed.
	_ = wal.PruneCheckpoints(ckptDir(sh.dir), sh.keep)
	return nil
}

// wedge records the sticky failure that wedged the shard (writer only).
func (sh *shard) wedge(err error) { sh.wedged.Store(&err) }

// Wedged returns the sticky error that wedged a shard's log, or nil while
// every shard is healthy. A wedged shard fails every further maintenance
// call with the same error while published snapshots stay readable;
// recover from the directory. Safe for concurrent use (the serving tier
// maps a wedged maintainer to 503).
func (s *Session) Wedged() error {
	for _, sh := range s.shards {
		if err := sh.wedged.Load(); err != nil {
			return *err
		}
	}
	return nil
}

// Dir returns the durable state directory ("" for an unlogged session).
func (s *Session) Dir() string { return s.dir }

// LastLSN returns the LSN of shard 0's last durably committed log record
// (0 before the first logged update and on an unlogged session; after
// recovery, the position the recovered state reflects). Safe from any
// goroutine.
func (s *Session) LastLSN() uint64 {
	if l := s.shards[0].log; l != nil {
		return l.LastLSN()
	}
	return 0
}

// CrashAfterAppends arms shard 0's injected WAL crash point: the next n
// appends succeed, then the following one writes a torn frame prefix and
// wedges the shard with wal.ErrInjectedCrash — the on-disk state of a
// process dying mid-append. Fault injection for crash-recovery testing.
func (s *Session) CrashAfterAppends(n int) { s.shards[0].log.CrashAfterAppends(n) }

// CrashNextCheckpoint arms shard 0's checkpoint crash point: the next
// checkpoint writes its bytes but dies before fsync/rename, leaving only a
// stale .tmp file recovery ignores, and wedges the shard. Fault injection
// for crash-recovery testing.
func (s *Session) CrashNextCheckpoint() { s.shards[0].failCkpt.Store(true) }

// writeManifest durably records m in dir.
func writeManifest(dir string, m shardManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	// Write-tmp / fsync / rename: the rename publishes atomically, but only
	// the Sync guarantees the bytes behind the new name survive a crash —
	// os.WriteFile alone could publish an empty or torn manifest.
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readManifest reads dir's manifest; a dir without one holds one shard.
func readManifest(dir string) (shardManifest, error) {
	var m shardManifest
	b, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return shardManifest{Shards: 1}, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %w", err)
	}
	if m.Shards < 1 || m.Shards > 1 && m.Fact == "" {
		return m, fmt.Errorf("lmfao: corrupt shard manifest: %+v", m)
	}
	return m, nil
}
