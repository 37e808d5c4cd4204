package main

import (
	"runtime"
	"runtime/debug"
	"time"

	lmfao "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jointree"
)

// setupRuns is how many times a run builds its system from nothing: setup_s
// is the median, and the last build is the one the timed phase uses.
const setupRuns = 3

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// repeatSetup runs build setupRuns times, timing each as one set-up, and
// returns the last system built; the earlier ones are handed to discard and
// their memory returned to the operating system, so that peak memory stays
// that of one system.
func repeatSetup[T any](r *run, build func(scope) (T, error), discard func(T)) (T, error) {
	var keep T
	for i := 0; i < setupRuns; i++ {
		tm := r.top().begin("bench.setup")
		v, err := build(r.top().under(tm))
		r.add("setup_s", tm.stop().Seconds())
		if err != nil {
			return keep, err
		}
		if i < setupRuns-1 {
			discard(v)
			freeMemory()
		} else {
			keep = v
		}
	}
	return keep, nil
}

// freeMemory collects garbage and returns it to the operating system. The
// harness calls it, outside any timed interval, after dropping a system it
// built, so that peak memory is that of one system.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// generate builds the named dataset at scale from dataSeed.
func generate(name string, scale float64) (*datagen.Dataset, error) {
	build, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return build(datagen.Config{Scale: scale, Seed: dataSeed})
}

// buildDataset generates the named dataset at scale and builds its join
// tree, as part of a set-up.
func buildDataset(s scope, name string, scale float64) (*datagen.Dataset, *jointree.Tree, error) {
	tm := s.begin("datagen.build")
	ds, err := generate(name, scale)
	s.r.add("datagen.build_ms", ms(tm.stop()))
	if err != nil {
		return nil, nil, err
	}
	tm = s.begin("jointree.build")
	tree, err := jointree.Build(ds.DB)
	s.r.add("jointree.build_ms", ms(tm.stop()))
	return ds, tree, err
}

// sessionOptions are the engine options of every maintained workload.
func sessionOptions() lmfao.Options {
	opts := lmfao.DefaultOptions()
	opts.TrackCounts = true
	return opts
}

// planCounts records the exact counts of a plan.
func planCounts(r *run, plan *core.Plan) {
	aggs := 0
	for _, v := range plan.Views {
		aggs += len(v.Aggs)
	}
	r.set("core.views", float64(len(plan.Views)))
	r.set("core.groups", float64(len(plan.Groups)))
	r.set("core.aggs_per_view", float64(aggs)/float64(len(plan.Views)))
}

// largest returns the database's biggest relation, its fact table.
func largest(db *lmfao.Database) *lmfao.Relation {
	var best *lmfao.Relation
	for _, rel := range db.Relations() {
		if best == nil || rel.Len() > best.Len() {
			best = rel
		}
	}
	return best
}
