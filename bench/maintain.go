package main

import (
	"fmt"
	"math/rand"
	"time"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// dimensions are retailer's dimension relations in round-robin order.
var dimensions = []string{"Location", "Census", "Items", "Weather"}

// monoidBatch is the non-sum-product part of the maintained batch: MIN/MAX,
// COUNT DISTINCT and TOP3 of a categorical attribute, grouped by cube
// dimensions. Deletes make these re-fold the groups whose support shrank.
func monoidBatch(ds *datagen.Dataset) []*lmfao.Query {
	minmax := lmfao.NewQuery("minmax", ds.CubeDims[:1])
	minmax.MonoidAggs = []lmfao.MonoidAgg{lmfao.MinOf(ds.Categorical[0]), lmfao.MaxOf(ds.Categorical[0])}
	distinct := lmfao.NewQuery("distinct", ds.CubeDims[1:2])
	distinct.MonoidAggs = []lmfao.MonoidAgg{lmfao.DistinctOf(ds.Categorical[0])}
	topk := lmfao.NewQuery("topk", ds.CubeDims[1:2])
	topk.MonoidAggs = []lmfao.MonoidAgg{lmfao.TopKOf(ds.Categorical[0], 3)}
	return []*lmfao.Query{minmax, distinct, topk}
}

// applyAcc accumulates what the maintenance passes of a stream report.
type applyAcc struct {
	rows                                        int
	scanned, base                               int
	dirtyGroups, kernel, idScan, fullScan       int
	dirtyViews, totalViews, incremental, rounds int
	// kept holds the stream's first updates for the direct-call probes.
	kept []lmfao.Update
}

// probeUpdates is how many updates of a stream the probes replay.
const probeUpdates = 16

// keep must see every update from the first, warm-up included: the probes
// replay the kept prefix against a freshly generated database.
func (a *applyAcc) keep(u lmfao.Update) {
	if len(a.kept) < probeUpdates {
		a.kept = append(a.kept, u)
	}
}

// timed counts the rows of an update applied inside the timed phase.
func (a *applyAcc) timed(u lmfao.Update) { a.rows += u.InsertRows() + u.DeleteRows() }

// record files one operation's maintenance passes: samples of the engine's
// pass, scan and merge times, the counts behind the shares, and child spans
// built from the returned durations (each pass is placed at the end of the
// operation's interval, scan first). It returns the longest pass and the
// sum of all passes.
func (a *applyAcc) record(s scope, op timer, wall time.Duration, stats []*lmfao.ApplyStats) (longest, sum time.Duration) {
	end := op.start.Add(wall)
	for _, st := range stats {
		if st == nil {
			continue
		}
		a.rounds++
		if st.Incremental {
			a.incremental++
		}
		a.scanned += st.ScannedRows
		a.base += st.BaseRows
		a.dirtyGroups += st.DirtyGroups
		a.kernel += st.KernelGroups
		a.idScan += st.IDScanGroups
		a.fullScan += st.FullScanGroups
		a.dirtyViews += st.DirtyViews
		a.totalViews += st.TotalViews
		s.r.add("moo.apply_ms", ms(st.Elapsed))
		s.r.add("moo.apply_scan_ms", ms(st.ScanElapsed))
		s.r.add("moo.apply_merge_ms", ms(st.MergeElapsed))
		longest = max(longest, st.Elapsed)
		sum += st.Elapsed
		if s.rec {
			from := end.Add(-st.Elapsed)
			id := s.r.tr.add("moo.Apply", op.id, s.req, from, end)
			s.r.tr.add("moo.apply.scan", id, s.req, from, from.Add(st.ScanElapsed))
			s.r.tr.add("moo.apply.merge", id, s.req, from.Add(st.ScanElapsed), from.Add(st.ScanElapsed+st.MergeElapsed))
		}
	}
	return longest, sum
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// finish sets the shares and the kernel-cache counters of the given engines.
func (a *applyAcc) finish(r *run, engines ...*lmfao.Engine) {
	r.set("moo.scan_share", share(a.scanned, a.base))
	r.set("moo.kernel_group_share", share(a.kernel, a.dirtyGroups))
	r.set("moo.idscan_group_share", share(a.idScan, a.dirtyGroups))
	r.set("moo.fullscan_group_share", share(a.fullScan, a.dirtyGroups))
	r.set("moo.dirty_view_share", share(a.dirtyViews, a.totalViews))
	r.set("lmfao.incremental_share", share(a.incremental, a.rounds))
	var hits, misses uint64
	size := 0
	for _, eng := range engines {
		st := eng.KernelCacheStats()
		hits += st.Hits
		misses += st.Misses
		size += st.Size
	}
	r.set("kernel.cache_hit_share", share(int(hits), int(hits+misses)))
	r.set("kernel.cache_size", float64(size))
}

// reportStream sets the end-to-end metrics every update stream shares.
func reportStream(r *run, rows int, wall time.Duration) {
	op := r.samples["op"]
	r.report("op_p50_ms", median(op), len(op))
	r.report("work_per_s", float64(rows)/wall.Seconds(), len(op))
	r.set("lmfao.apply_p99_ms", quantile(op, 0.99))
}

// runMaintainDim is workload maintain_dim: an unsharded session over the
// covar batch plus monoid queries, under closed-loop Apply calls that each
// delete and re-insert, perturbed, 1 % of every dimension relation.
func runMaintainDim(r *run) error {
	type system struct {
		ds      *datagen.Dataset
		sess    *lmfao.Session
		queries []*lmfao.Query
	}
	sys, err := repeatSetup(r, func(s scope) (*system, error) {
		ds, tree, err := buildDataset(s, "retailer", r.cfg.scale)
		if err != nil {
			return nil, err
		}
		sys := &system{ds: ds, queries: append(workloads.CovarMatrix(ds), monoidBatch(ds)...)}
		sys.sess, err = lmfao.NewSessionWithEngine(lmfao.NewEngineWithTree(ds.DB, tree, sessionOptions()), sys.queries)
		if err != nil {
			return nil, err
		}
		tm := s.begin("lmfao.Session.Run")
		_, err = sys.sess.Run()
		r.add("moo.cold_run_ms", ms(tm.stop()))
		return sys, err
	}, func(sys *system) { sys.sess.Close() })
	if err != nil {
		return err
	}
	defer sys.sess.Close()
	db, spec := sys.ds.DB, workloads.LinRegSpec(sys.ds)
	covar := len(workloads.CovarMatrix(sys.ds))

	stream := newDimStream(rand.New(rand.NewSource(r.cfg.seed)), db, dimensions, 0.01)
	// One operation is one Apply call carrying an update of each dimension
	// relation. Timed one by one, the four kinds of update cost 5 to 60 ms
	// and the median falls on the boundary between two of them.
	var acc applyAcc
	round := func() []lmfao.Update {
		us := make([]lmfao.Update, len(dimensions))
		for i := range us {
			us[i] = stream.update()
			acc.keep(us[i])
		}
		return us
	}
	// The first update of each relation compiles its kernels and builds its
	// join-key indexes; users meet that once per session, so it is not timed.
	_, err = sys.sess.Apply(round()...)
	r.op(err)
	phase := r.top().begin("bench.timed")
	for i := 0; i < 2 || time.Since(phase.start).Seconds() < r.cfg.seconds; i++ {
		us := round()
		s := r.opScope(phase, i, 1)
		tm := s.begin("lmfao.Session.Apply")
		stats, err := sys.sess.Apply(us...)
		d := tm.stop()
		if !r.op(err) {
			continue
		}
		for _, u := range us {
			acc.timed(u)
		}
		r.addOp(s.rec, ms(d))
		_, sum := acc.record(s, tm, d, stats)
		r.add("lmfao.session_overhead_ms", ms(d-sum))
		if i%2 == 1 {
			tm := r.scopeOf(phase, i).begin("ml.linreg.fit")
			sub, err := lmfao.SubQueryable(sys.sess.Snapshot(), 0, covar)
			if err == nil {
				_, err = lmfao.LearnLinearRegressionFrom(sub, db, spec)
			}
			if d := tm.stop(); r.op(err) {
				r.add("ml.linreg_fit_ms", ms(d))
			}
		}
	}
	wall := phase.stop()
	sys.sess.Close()
	if len(r.samples["ml.linreg_fit_ms"]) == 0 {
		return fmt.Errorf("no re-fit succeeded")
	}

	reportStream(r, acc.rows, wall)
	// A run holds some seventy operations: the 90th percentile is the
	// highest with a handful of samples beyond it.
	r.report("op_tail_ms", quantile(r.samples["op"], 0.9), len(r.samples["op"]))
	r.report("derived_p50_ms", median(r.samples["ml.linreg_fit_ms"]), len(r.samples["ml.linreg_fit_ms"]))
	acc.finish(r, sys.sess.Engine())
	if r.cfg.trace {
		if err := probeSession(r, sys.sess.Engine(), sys.sess.Head(), sys.queries, r.cfg.scale, acc.kept); err != nil {
			return err
		}
	}
	return checkMaintained(r, "maintain_dim", sys.sess.Snapshot(), db, sys.queries)
}

const (
	// factWindow is how many ApplyAsync calls maintain_fact keeps in flight.
	factWindow = 4
	// refitEvery is how many updates lie between two re-fits; the session is
	// drained before each, so that a re-fit is timed without shard workers
	// competing for the two cores.
	refitEvery = 20
)

// runMaintainFact is workload maintain_fact: a two-shard session over the
// covar batch under Inventory updates of 512 deletes and 512 inserts whose
// shard-key values are Zipf(1.1)-skewed, factWindow of them in flight.
func runMaintainFact(r *run) error {
	type system struct {
		ds      *datagen.Dataset
		sess    *lmfao.ShardedSession
		queries []*lmfao.Query
	}
	sys, err := repeatSetup(r, func(s scope) (*system, error) {
		ds, _, err := buildDataset(s, "retailer", r.cfg.scale)
		if err != nil {
			return nil, err
		}
		sys := &system{ds: ds, queries: workloads.CovarMatrix(ds)}
		tm := s.begin("lmfao.NewShardedSession")
		sys.sess, err = lmfao.NewShardedSession(ds.DB, sys.queries, sessionOptions(), lmfao.ShardOptions{Shards: 2})
		tm.stop()
		if err != nil {
			return nil, err
		}
		tm = s.begin("lmfao.ShardedSession.Run")
		_, err = sys.sess.Run()
		r.add("moo.cold_run_ms", ms(tm.stop()))
		return sys, err
	}, func(sys *system) { sys.sess.Close() })
	if err != nil {
		return err
	}
	defer sys.sess.Close()
	db, spec := sys.ds.DB, workloads.LinRegSpec(sys.ds)
	fact := db.Relation(sys.sess.FactRelation())
	stream, err := newFactStream(rand.New(rand.NewSource(r.cfg.seed)), fact, sys.sess.ShardKey()[0], 1.1)
	if err != nil {
		return err
	}
	var acc applyAcc
	for i := 0; i < 2; i++ {
		u := stream.update(512, 512)
		acc.keep(u)
		_, err := sys.sess.Apply(u)
		r.op(err)
	}

	type call struct {
		ch <-chan lmfao.ApplyResult
		tm timer
		s  scope
	}
	perShard := make([]int, sys.sess.NumShards())
	phase := r.top().begin("bench.timed")
	var queue []call
	complete := func(c call) {
		res := <-c.ch
		d := c.tm.stop()
		if !r.op(res.Err) {
			return
		}
		r.addOp(c.s.rec, ms(d))
		longest, _ := acc.record(c.s, c.tm, d, res.Stats)
		r.add("lmfao.queue_wait_ms", ms(d-longest))
	}
	// refit learns the regression from the merged snapshot of a drained
	// session: merging every query's per-shard views, then the fit.
	refit := func(req int) {
		s := r.scopeOf(phase, req)
		whole := s.begin("bench.refit")
		head := sys.sess.Head()
		tm := s.under(whole).begin("moo.CombineViews")
		var err error
		for q := 0; q < head.NumQueries() && err == nil; q++ {
			_, err = head.MergedResult(q)
		}
		combine := tm.stop()
		tm = s.under(whole).begin("ml.linreg.fit")
		if err == nil {
			_, err = lmfao.LearnLinearRegressionFrom(head, db, spec)
		}
		fit := tm.stop()
		if d := whole.stop(); r.op(err) {
			r.add("refit", ms(d))
			r.add("moo.combine_ms", ms(combine))
			r.add("ml.linreg_fit_ms", ms(fit))
		}
	}
	for i := 0; i < refitEvery || time.Since(phase.start).Seconds() < r.cfg.seconds; i++ {
		switch {
		case i%refitEvery == refitEvery-1:
			for _, c := range queue {
				complete(c)
			}
			queue = queue[:0]
			refit(i)
		case len(queue) == factWindow:
			complete(queue[0])
			queue = queue[1:]
		}
		u := stream.update(512, 512)
		acc.keep(u)
		acc.timed(u)
		for _, block := range [][]data.Column{u.Deletes, u.Inserts} {
			for _, k := range block[stream.keyCol].Ints {
				perShard[data.ShardOf([]int64{k}, len(perShard))]++
			}
		}
		s := r.opScope(phase, i, 1)
		tm := s.begin("lmfao.ShardedSession.ApplyAsync")
		queue = append(queue, call{ch: sys.sess.ApplyAsync(u), tm: tm, s: s})
	}
	for _, c := range queue {
		complete(c)
	}
	sys.sess.Wait()
	wall := phase.stop()
	if len(r.samples["refit"]) == 0 {
		return fmt.Errorf("no re-fit succeeded")
	}

	reportStream(r, acc.rows, wall)
	r.report("op_tail_ms", quantile(r.samples["op"], 0.95), len(r.samples["op"]))
	r.report("derived_p50_ms", median(r.samples["refit"]), len(r.samples["refit"]))
	st := sys.sess.Stats()
	r.set("lmfao.coalesce_factor", float64(st.Enqueued)/float64(st.Rounds))
	r.set("lmfao.shard_skew", float64(max(perShard[0], perShard[1]))*float64(len(perShard))/float64(perShard[0]+perShard[1]))
	head := sys.sess.Head()
	sys.sess.Close()
	engines := []*lmfao.Engine{sys.sess.Shard(0).Engine(), sys.sess.Shard(1).Engine()}
	acc.finish(r, engines...)
	if r.cfg.trace {
		if err := probeSession(r, engines[0], head.Shard(0), sys.queries, r.cfg.scale, acc.kept); err != nil {
			return err
		}
		if err := probeRoute(r, fact, sys.sess.ShardKey(), acc.kept); err != nil {
			return err
		}
	}
	mutated, err := cloneDatabase(db, fact.Name, stream.live())
	if err != nil {
		return err
	}
	return checkMaintained(r, "maintain_fact", head, mutated, sys.queries)
}
