package main

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	lmfao "repro"
	"repro/internal/datagen"
	"repro/internal/wal"
	"repro/internal/workloads"
)

const (
	// checkpointEvery is how many updates lie between explicit checkpoints.
	// It shares no factor with the number of dimension relations, so the
	// update behind a checkpoint is not always of the same relation.
	checkpointEvery = 5
	// replaySuffix is how many updates the session is killed past its last
	// checkpoint (at most checkpointEvery); each update logs two records, a
	// fact and a dimension one.
	replaySuffix = 4
	// durableScaleShare is the share of the run's scale durable_stream
	// generates its database at. Every one of its operations costs time in
	// proportion to the whole database (alternating fact and dimension
	// deltas re-sort the fact relation, a checkpoint writes all of it, a
	// recovery reads all of it), so at the full scale a run would hold a
	// dozen updates and one checkpoint.
	durableScaleShare = 0.5
	// recoveries is how many times the killed session is recovered, each
	// from its own copy of the directory.
	recoveries = 3
)

// durableOptions fix the flush policy: fsync on every commit, checkpoints
// only where the workload asks for them.
var durableOptions = lmfao.DurableOptions{CheckpointEvery: -1, SyncEvery: 1}

// copyDir copies a directory tree of regular files.
func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// checkBitExact compares a recovered snapshot with the state before the
// kill: the version vector and every column of every materialized view.
func checkBitExact(r *run, label string, got, want *lmfao.Snapshot) {
	r.check(got.VersionVector().Equal(want.VersionVector()), "%s: version vector %v, want %v",
		label, got.VersionVector(), want.VersionVector())
	gm, wm := got.Batch().Materialized, want.Batch().Materialized
	if len(gm) != len(wm) {
		r.check(false, "%s: %d materialized views, want %d", label, len(gm), len(wm))
		return
	}
	for i := range wm {
		if wm[i] == nil || gm[i] == nil {
			r.check(wm[i] == nil && gm[i] == nil, "%s: view %d is materialized on one side only", label, i)
			continue
		}
		err := diffRows(viewRows(gm[i]), viewRows(wm[i]), wm[i].Stride, 0)
		r.check(err == nil && gm[i].Stride == wm[i].Stride, "%s: view %d: %v", label, i, err)
	}
}

// recoverOnce recovers the killed session from a copy of its directory over
// a freshly generated database, times it and checks the recovered state.
func recoverOnce(r *run, from, dir string, scale float64, want *lmfao.Snapshot) error {
	if err := copyDir(from, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pristine, err := generate("retailer", scale)
	if err != nil {
		return err
	}
	tm := r.top().begin("lmfao.RecoverSession")
	rec, err := lmfao.RecoverSession(dir, pristine.DB, workloads.CovarMatrix(pristine), sessionOptions(), durableOptions)
	d := tm.stop()
	if !r.op(err) {
		return nil
	}
	defer rec.Kill()
	r.add("recover", ms(d))
	checkBitExact(r, "recovery", rec.Head(), want)
	return nil
}

// runDurableStream is workload durable_stream: a write-ahead-logged session
// under updates that each pair a bulk 1 % Inventory delta with a dimension
// delta, explicit checkpoints, a kill, and recovery.
func runDurableStream(r *run) error {
	type system struct {
		ds      *datagen.Dataset
		sess    *lmfao.DurableSession
		queries []*lmfao.Query
	}
	// Everything the workload writes stays under the checkout.
	scratch := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	scale := durableScaleShare * r.cfg.scale
	built := 0
	sys, err := repeatSetup(r, func(s scope) (*system, error) {
		ds, _, err := buildDataset(s, "retailer", scale)
		if err != nil {
			return nil, err
		}
		sys := &system{ds: ds, queries: workloads.CovarMatrix(ds)}
		built++
		tm := s.begin("lmfao.NewDurableSession")
		sys.sess, err = lmfao.NewDurableSession(ds.DB, sys.queries, sessionOptions(), durableOptions,
			filepath.Join(scratch, fmt.Sprintf("session-%d", built)))
		tm.stop()
		if err != nil {
			return nil, err
		}
		// Run computes the batch and writes the first checkpoint.
		tm = s.begin("moo.cold_run")
		_, err = sys.sess.Run()
		r.add("moo.cold_run_ms", ms(tm.stop()))
		return sys, err
	}, func(sys *system) {
		sys.sess.Kill()
		os.RemoveAll(sys.sess.Dir())
	})
	if err != nil {
		return err
	}
	defer sys.sess.Kill()
	db := sys.ds.DB
	fact := largest(db)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	bulk, err := newFactStream(rng, fact, fact.Attrs[0], 0)
	if err != nil {
		return err
	}
	dims := newDimStream(rng, db, dimensions, 0.01)
	half := fact.Len() / 200

	var acc applyAcc
	next := func() []lmfao.Update {
		us := []lmfao.Update{bulk.update(half, half), dims.update()}
		acc.keep(us[0])
		acc.keep(us[1])
		return us
	}
	// As in maintain_dim, the first update of each dimension relation is not
	// timed.
	for range dimensions {
		_, err = sys.sess.Apply(next()...)
		r.op(err)
	}

	// The stream takes a little over half of the measured time, recovery the
	// rest. It ends replaySuffix updates past a checkpoint, and not before
	// the first one.
	phase := r.top().begin("bench.timed")
	since := 0
	for i := 0; ; i++ {
		if since == replaySuffix && len(r.samples["stalled"]) > 0 && time.Since(phase.start).Seconds() >= 0.55*r.cfg.seconds {
			break
		}
		us := next()
		// The update that arrives as a checkpoint starts waits for it: the
		// pair is timed as the stream's slow case.
		behind := since == checkpointEvery
		var stalled timer
		if behind {
			sc := r.scopeOf(phase, i)
			stalled = sc.begin("bench.update_behind_checkpoint")
			tm := sc.under(stalled).begin("lmfao.DurableSession.Checkpoint")
			err := sys.sess.Checkpoint()
			if d := tm.stop(); r.op(err) {
				r.add("lmfao.checkpoint_ms", ms(d))
			}
			since = 0
		}
		s := r.opScope(phase, i, len(dimensions))
		tm := s.begin("lmfao.DurableSession.Apply")
		stats, err := sys.sess.Apply(us...)
		d := tm.stop()
		since++
		if behind {
			r.add("stalled", ms(stalled.stop()))
		}
		if !r.op(err) {
			continue
		}
		acc.timed(us[0])
		acc.timed(us[1])
		r.addOp(s.rec, ms(d))
		_, sum := acc.record(s, tm, d, stats)
		r.add("lmfao.session_overhead_ms", ms(d-sum))
	}
	wall := phase.stop()
	want := sys.sess.Head()
	sys.sess.Kill()

	// The kill discards nothing the operating system cached, so recovery
	// proves replay, not that the device kept the bytes.
	freeMemory()
	for k := 0; k < recoveries; k++ {
		dir := filepath.Join(scratch, fmt.Sprintf("recover-%d", k))
		if err := recoverOnce(r, sys.sess.Dir(), dir, scale, want); err != nil {
			return err
		}
		freeMemory()
	}

	reportStream(r, acc.rows, wall)
	r.report("op_tail_ms", median(r.samples["stalled"]), len(r.samples["stalled"]))
	r.report("derived_p50_ms", median(r.samples["recover"]), len(r.samples["recover"]))
	eng := sys.sess.Session().Engine()
	acc.finish(r, eng)
	if r.cfg.trace {
		if err := probeDurability(r, sys.sess.Dir(), filepath.Join(scratch, "probe"), acc.kept); err != nil {
			return err
		}
		if err := probeSession(r, eng, want, sys.queries, scale, acc.kept); err != nil {
			return err
		}
	}
	return checkMaintained(r, "durable_stream", want, db, sys.queries)
}

// probeDurability times the durability layer alone: appending the stream's
// first updates to a scratch log with the session's flush policy, loading
// the newest checkpoint of the killed session, and decoding its log suffix.
// What remains of recover_s after the last two is re-applying the suffix.
func probeDurability(r *run, dir, scratch string, kept []lmfao.Update) error {
	s := r.top()
	log, err := wal.Open(filepath.Join(scratch, "wal"), wal.Options{SyncEvery: durableOptions.SyncEvery})
	if err != nil {
		return err
	}
	rows := 0
	for _, u := range kept {
		tm := s.begin("wal.Append")
		_, err := log.Append(u)
		r.add("wal.append_ms", ms(tm.stop()))
		if err != nil {
			log.Abort()
			return err
		}
		rows += u.InsertRows() + u.DeleteRows()
	}
	if err := log.Close(); err != nil {
		return err
	}
	logged, err := dirBytes(filepath.Join(scratch, "wal"))
	if err != nil {
		return err
	}
	r.set("wal.bytes_per_row", float64(logged)/float64(rows))

	var ck *wal.Checkpoint
	for i := 0; i < recoveries; i++ {
		tm := s.begin("wal.LatestCheckpoint")
		ck, err = wal.LatestCheckpoint(filepath.Join(dir, "checkpoint"))
		r.add("wal.checkpoint_load_ms", ms(tm.stop()))
		if err != nil || ck == nil {
			return fmt.Errorf("probe: no checkpoint under %s: %v", dir, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "checkpoint"))
	if err != nil {
		return err
	}
	var newest int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			newest = info.Size() // names sort by LSN, so the last is the newest
		}
	}
	r.set("wal.checkpoint_bytes", float64(newest))

	copied := filepath.Join(scratch, "replay")
	if err := copyDir(filepath.Join(dir, "wal"), copied); err != nil {
		return err
	}
	log, err = wal.Open(copied, wal.Options{SyncEvery: durableOptions.SyncEvery})
	if err != nil {
		return err
	}
	defer log.Abort()
	for i := 0; i < recoveries; i++ {
		records := 0
		tm := s.begin("wal.Replay")
		err := log.Replay(ck.LSN, func(wal.Record) error { records++; return nil })
		r.add("wal.replay_decode_ms", ms(tm.stop()))
		if err != nil {
			return err
		}
		r.check(records == 2*replaySuffix, "probe: %d log records past the checkpoint, want %d", records, 2*replaySuffix)
	}
	r.set("lmfao.recover_reapply_ms", median(r.samples["recover"])-
		median(r.samples["wal.checkpoint_load_ms"])-median(r.samples["wal.replay_decode_ms"]))
	return nil
}
