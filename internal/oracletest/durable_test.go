package oracletest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/wal"
)

// Kill-and-recover differential oracle (the durability acceptance test): a
// WAL-backed DurableSession and an uninterrupted twin Session consume the
// same recorded update stream; the durable side is killed at an injected
// crash point (mid-batch torn append, checkpoint that dies before fsync, a
// torn or bit-flipped log tail, or a plain Kill with no final checkpoint),
// recovered from disk, re-fed exactly the updates its log proves it lost,
// and must then be bit-exact with the twin: every materialized view
// (internal and output, hidden tuple counts included), and the relation
// version vector. The stream then continues through both sides and they
// must stay bit-exact. Generated values are dyadic so replayed float sums
// reproduce exactly; any disagreement is a durability bug, not drift.

// durableHarness owns one durable/twin pair over clones of one generated
// database plus the recorded update stream that drove them.
type durableHarness struct {
	t        *testing.T
	rng      *rand.Rand
	schema   *Schema
	queries  []*query.Query
	opts     moo.Options
	dopts    lmfao.DurableOptions
	dir      string
	pristine *data.Database // untouched clone recovery starts from
	twinDB   *data.Database
	twin     *lmfao.Session
	dur      *lmfao.DurableSession
	updates  []lmfao.Update
}

func newDurableHarness(t *testing.T, seed int64, dopts lmfao.DurableOptions) *durableHarness {
	t.Helper()
	return newDurableHarnessWith(t, seed, dopts, moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1})
}

// newDurableHarnessWith is newDurableHarness with both sessions built under
// opts.
func newDurableHarnessWith(t *testing.T, seed int64, dopts lmfao.DurableOptions, opts moo.Options) *durableHarness {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := GenSchema(rng)
	if err != nil {
		t.Fatal(err)
	}
	queries := GenQueries(rng, s)
	pristine, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	twinDB, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := lmfao.NewSession(twinDB, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dur, err := lmfao.NewDurableSession(s.DB, queries, opts, dopts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dur.Run(); err != nil {
		t.Fatal(err)
	}
	return &durableHarness{t: t, rng: rng, schema: s, queries: queries, opts: opts,
		dopts: dopts, dir: dir, pristine: pristine, twinDB: twinDB, twin: twin, dur: dur}
}

// drive streams n fresh randomized updates through the twin and (best
// effort) the durable session, recording each. Durable-side errors are
// expected once a crash point triggers: the log stops accepting work and
// the on-disk prefix is what recovery gets.
func (h *durableHarness) drive(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		u := GenDelta(h.rng, h.twinDB, 3)
		h.updates = append(h.updates, u)
		if _, err := h.twin.Apply(u); err != nil {
			h.t.Fatalf("twin apply %d: %v", len(h.updates)-1, err)
		}
		_, _ = h.dur.Apply(u)
	}
}

// recoverAndResync recovers from h.dir over the pristine clone, re-applies
// the suffix of the recorded stream the log lost, and returns the recovered
// session. The caller owns Close.
func (h *durableHarness) recoverAndResync() *lmfao.DurableSession {
	h.t.Helper()
	rec, err := lmfao.RecoverSession(h.dir, h.pristine, h.queries, h.opts, h.dopts)
	if err != nil {
		h.t.Fatalf("RecoverSession: %v", err)
	}
	applied := rec.LastLSN()
	if applied > uint64(len(h.updates)) {
		h.t.Fatalf("recovered LSN %d beyond the %d-update stream", applied, len(h.updates))
	}
	if rest := h.updates[applied:]; len(rest) > 0 {
		if _, err := rec.Apply(rest...); err != nil {
			h.t.Fatalf("re-applying %d lost updates: %v", len(rest), err)
		}
	}
	return rec
}

// requireBitExact compares the recovered session against the twin: version
// vector and the complete materialized view DAG, all columns.
func requireBitExact(t *testing.T, label string, got, want *lmfao.Snapshot) {
	t.Helper()
	if !got.VersionVector().Equal(want.VersionVector()) {
		t.Fatalf("%s: version vector %v, want %v", label, got.VersionVector(), want.VersionVector())
	}
	gm, wm := got.Batch().Materialized, want.Batch().Materialized
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d materialized views, want %d", label, len(gm), len(wm))
	}
	for i := range wm {
		if (gm[i] == nil) != (wm[i] == nil) {
			t.Fatalf("%s: view %d present=%v, want %v", label, i, gm[i] != nil, wm[i] != nil)
		}
		if wm[i] == nil {
			continue
		}
		if err := diffRows(fmt.Sprintf("%s/view %d", label, i),
			viewRows(gm[i], -1), viewRows(wm[i], -1), Exact); err != nil {
			t.Fatal(err)
		}
	}
}

// finish re-checks agreement, streams more updates through both sides, and
// re-checks again; recovery must leave a fully live session behind.
func (h *durableHarness) finish(rec *lmfao.DurableSession, label string) {
	h.t.Helper()
	requireBitExact(h.t, label+"/recovered", rec.Head(), h.twin.Head())
	for i := 0; i < 8; i++ {
		u := GenDelta(h.rng, h.twinDB, 3)
		if _, err := h.twin.Apply(u); err != nil {
			h.t.Fatalf("%s: twin continue %d: %v", label, i, err)
		}
		if _, err := rec.Apply(u); err != nil {
			h.t.Fatalf("%s: recovered continue %d: %v", label, i, err)
		}
	}
	requireBitExact(h.t, label+"/continued", rec.Head(), h.twin.Head())
	rec.Close()
	h.twin.Close()
}

// lastSegment returns the newest WAL segment file under the durable dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments under %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

func TestDurableKillRecover(t *testing.T) {
	t.Run("midbatch", func(t *testing.T) {
		// Torn append mid-stream: the 14th log write dies halfway through
		// the frame. Recovery must land exactly on the 13-update prefix.
		h := newDurableHarness(t, 501, lmfao.DurableOptions{CheckpointEvery: 5, SyncEvery: 1})
		h.dur.CrashAfterAppends(13)
		h.drive(30)
		h.dur.Kill()
		rec := h.recoverAndResync()
		if got := rec.LastLSN(); got < 13 {
			t.Fatalf("recovered LSN %d, want >= 13 (crash point plus resync)", got)
		}
		h.finish(rec, "midbatch")
	})

	t.Run("precheckpoint", func(t *testing.T) {
		// The first automatic checkpoint dies before fsync: recovery must
		// ignore its .tmp litter and replay the whole log from scratch.
		h := newDurableHarness(t, 502, lmfao.DurableOptions{CheckpointEvery: 6, SyncEvery: 1})
		h.dur.CrashNextCheckpoint()
		h.drive(20)
		h.dur.Kill()
		rec := h.recoverAndResync()
		h.finish(rec, "precheckpoint")
	})

	t.Run("postcheckpoint", func(t *testing.T) {
		// Plain kill with live checkpoints: recovery restores the newest
		// checkpoint and replays only the log suffix after it.
		h := newDurableHarness(t, 503, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1})
		h.drive(11)
		h.dur.Kill()
		rec := h.recoverAndResync()
		if got := rec.LastLSN(); got != 11 {
			t.Fatalf("nothing was torn, so the full 11-update log must replay; got LSN %d", got)
		}
		h.finish(rec, "postcheckpoint")
	})

	t.Run("torntail", func(t *testing.T) {
		// The tail of the last segment is cut mid-frame after the kill
		// (a torn write the file system half-persisted).
		h := newDurableHarness(t, 504, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1})
		h.drive(11)
		h.dur.Kill()
		seg := lastSegment(t, h.dir)
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		rec := h.recoverAndResync()
		h.finish(rec, "torntail")
	})

	t.Run("corrupt", func(t *testing.T) {
		// A bit flip near the tail of the last segment: the checksum cuts
		// the log at the damaged record and recovery resumes from there.
		h := newDurableHarness(t, 505, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1})
		h.drive(11)
		h.dur.Kill()
		seg := lastSegment(t, h.dir)
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-10] ^= 0x10
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := h.recoverAndResync()
		h.finish(rec, "corrupt")
	})

	t.Run("cleanclose", func(t *testing.T) {
		// Close writes a final checkpoint; recovery must not need the log.
		h := newDurableHarness(t, 506, lmfao.DurableOptions{CheckpointEvery: 64, SyncEvery: 1})
		h.drive(11)
		h.dur.Close()
		rec := h.recoverAndResync()
		if got := rec.LastLSN(); got != 11 {
			t.Fatalf("clean close lost work: LSN %d, want 11", got)
		}
		h.finish(rec, "cleanclose")
	})

	t.Run("smalldeltalogcap", func(t *testing.T) {
		h := newDurableHarness(t, 507, lmfao.DurableOptions{CheckpointEvery: 3, SyncEvery: 1})
		h.drive(17)
		h.dur.Kill()
		rec := h.recoverAndResync()
		h.finish(rec, "smalldeltalogcap")
	})

	t.Run("otherthreads", func(t *testing.T) {
		// Recovery under another Threads value than the session ran with,
		// both ways: every scan takes the same morsels whatever Threads is,
		// so the recovered session matches its twin bit for bit.
		for _, threads := range [][2]int{{1, 4}, {4, 1}} {
			label := fmt.Sprintf("threads%dto%d", threads[0], threads[1])
			h := newDurableHarnessWith(t, 509, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1},
				moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: threads[0]})
			h.drive(11)
			h.dur.Kill()
			h.opts.Threads = threads[1]
			rec := h.recoverAndResync()
			h.finish(rec, label)
		}
	})
}

// TestDurableSessionRejectsReuse pins the constructor contract: a directory
// already holding durable state must be recovered, never re-initialized.
func TestDurableSessionRejectsReuse(t *testing.T) {
	h := newDurableHarness(t, 508, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1})
	h.drive(5)
	h.dur.Close()
	if _, err := lmfao.NewDurableSession(h.pristine, h.queries, h.opts, h.dopts, h.dir); err == nil {
		t.Fatal("NewDurableSession re-initialized a directory holding state")
	}
	rec := h.recoverAndResync()
	h.finish(rec, "reuse")
}

// shardedDurableFixture builds a two-shard logged session plus an unsharded
// twin over clones of one generated database.
type shardedDurableFixture struct {
	t        *testing.T
	rng      *rand.Rand
	schema   *Schema
	queries  []*query.Query
	opts     moo.Options
	dopts    lmfao.DurableOptions
	dir      string
	pristine *data.Database
	twinDB   *data.Database
	twin     *lmfao.Session
	dur      *lmfao.DurableSession
	updates  []lmfao.Update
}

func newShardedDurableFixture(t *testing.T, seed int64, dopts lmfao.DurableOptions) *shardedDurableFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := GenSchema(rng)
	if err != nil {
		t.Fatal(err)
	}
	queries := GenQueries(rng, s)
	pristine, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	twinDB, err := cloneDatabase(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
	twin, err := lmfao.NewSession(twinDB, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dur, err := lmfao.NewDurableShardedSession(s.DB, queries, opts, lmfao.ShardOptions{Shards: 2}, dopts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dur.Run(); err != nil {
		t.Fatal(err)
	}
	return &shardedDurableFixture{t: t, rng: rng, schema: s, queries: queries, opts: opts,
		dopts: dopts, dir: dir, pristine: pristine, twinDB: twinDB, twin: twin, dur: dur}
}

func TestDurableShardedKillRecover(t *testing.T) {
	t.Run("cleanclose", func(t *testing.T) {
		f := newShardedDurableFixture(t, 601, lmfao.DurableOptions{CheckpointEvery: 4, SyncEvery: 1})
		for i := 0; i < 15; i++ {
			u := GenDelta(f.rng, f.twinDB, 3)
			f.updates = append(f.updates, u)
			if _, err := f.twin.Apply(u); err != nil {
				t.Fatal(err)
			}
			if _, err := f.dur.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		requireShardedAgreement(t, "preclose", f.dur.Head(), f.twin, len(f.queries))
		wantVV := f.dur.Head().Versions()
		f.dur.Close()

		// Each shard's final checkpoint covers its pre-close vector.
		for i := 0; i < f.dur.NumShards(); i++ {
			ck, err := wal.LatestCheckpoint(filepath.Join(f.dur.Shard(i).Dir(), "checkpoint"))
			if err != nil || ck == nil {
				t.Fatalf("shard %d: no final checkpoint (err=%v)", i, err)
			}
			if !ck.Versions.Equal(wantVV[i]) {
				t.Fatalf("shard %d: final checkpoint versions %v do not match pre-close vector %v", i, ck.Versions, wantVV[i])
			}
		}

		rec, err := lmfao.RecoverSession(f.dir, f.pristine, f.queries, f.opts, f.dopts)
		if err != nil {
			t.Fatal(err)
		}
		requireShardedAgreement(t, "recovered", rec.Head(), f.twin, len(f.queries))
		// Keep streaming through both sides after recovery.
		for i := 0; i < 6; i++ {
			u := GenDelta(f.rng, f.twinDB, 3)
			if _, err := f.twin.Apply(u); err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		requireShardedAgreement(t, "continued", rec.Head(), f.twin, len(f.queries))
		rec.Close()
		f.twin.Close()
	})

	t.Run("killandtorntail", func(t *testing.T) {
		f := newShardedDurableFixture(t, 602, lmfao.DurableOptions{CheckpointEvery: 64, SyncEvery: 1})
		// Fact-only updates with a constant shard key: every row routes to
		// one shard, so that shard's LSN counts the stream 1:1 and the lost
		// suffix can be re-fed through it after recovery.
		fact := f.schema.DB.Relation(f.dur.FactRelation())
		if fact == nil {
			t.Fatalf("fact relation %q missing", f.dur.FactRelation())
		}
		keyPos := map[int]bool{}
		for ci, a := range fact.Attrs {
			for _, k := range f.dur.ShardKey() {
				if a == k {
					keyPos[ci] = true
				}
			}
		}
		// Every update inserts fresh rows with shard key 1 and sometimes
		// deletes one existing key-1 row, so the whole stream routes to one
		// shard and is never empty: the shard's LSN counts the stream 1:1,
		// which the post-recovery resync relies on.
		gen := func() lmfao.Update {
			rel := f.twinDB.Relation(fact.Name)
			u := lmfao.Update{Relation: rel.Name}
			nIns := 1 + f.rng.Intn(3)
			cols := make([]data.Column, len(rel.Cols))
			for ci, c := range rel.Cols {
				if c.IsInt() {
					vals := make([]int64, nIns)
					for i := range vals {
						if keyPos[ci] {
							vals[i] = 1
						} else {
							vals[i] = int64(f.rng.Intn(8))
						}
					}
					cols[ci] = data.NewIntColumn(vals)
				} else {
					cols[ci] = data.NewFloatColumn(dyadic(f.rng, nIns, 8))
				}
			}
			u.Inserts = cols
			if f.rng.Intn(2) == 0 {
				var cand []int
				for r := 0; r < rel.Len(); r++ {
					ok := true
					for ci := range rel.Cols {
						if keyPos[ci] && rel.Cols[ci].Ints[r] != 1 {
							ok = false
							break
						}
					}
					if ok {
						cand = append(cand, r)
					}
				}
				if len(cand) > 0 {
					r := cand[f.rng.Intn(len(cand))]
					dcols := make([]data.Column, len(rel.Cols))
					for ci, c := range rel.Cols {
						if c.IsInt() {
							dcols[ci] = data.NewIntColumn([]int64{c.Ints[r]})
						} else {
							dcols[ci] = data.NewFloatColumn([]float64{c.Floats[r]})
						}
					}
					u.Deletes = dcols
				}
			}
			return u
		}
		const n = 12
		for i := 0; i < n; i++ {
			u := gen()
			f.updates = append(f.updates, u)
			if _, err := f.twin.Apply(u); err != nil {
				t.Fatal(err)
			}
			if _, err := f.dur.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		// Find the shard the constant key routes to.
		target := -1
		for i := 0; i < f.dur.NumShards(); i++ {
			if f.dur.Shard(i).LastLSN() > 0 {
				if target >= 0 {
					t.Fatalf("constant-key stream reached shards %d and %d", target, i)
				}
				target = i
			}
		}
		if target < 0 {
			t.Fatal("no shard logged the stream")
		}
		requireShardedAgreement(t, "prekill", f.dur.Head(), f.twin, len(f.queries))
		f.dur.Kill()

		// Tear the tail of the loaded shard's log.
		seg := lastSegment(t, filepath.Join(f.dir, fmt.Sprintf("shard-%d", target)))
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, st.Size()-4); err != nil {
			t.Fatal(err)
		}

		rec, err := lmfao.RecoverSession(f.dir, f.pristine, f.queries, f.opts, f.dopts)
		if err != nil {
			t.Fatal(err)
		}
		applied := rec.Shard(target).LastLSN()
		if applied >= n {
			t.Fatalf("torn tail survived: shard LSN %d of %d", applied, n)
		}
		if rest := f.updates[applied:]; len(rest) > 0 {
			if _, err := rec.Shard(target).Apply(rest...); err != nil {
				t.Fatalf("re-feeding %d lost updates: %v", len(rest), err)
			}
		}
		requireShardedAgreement(t, "recovered", rec.Head(), f.twin, len(f.queries))
		rec.Close()
		f.twin.Close()
	})
}
