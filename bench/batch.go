package main

import (
	"fmt"
	"math"
	"time"

	lmfao "repro"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// batchWorkload describes a one-shot workload: aggregate batches evaluated
// on an engine, and models learned from that engine.
type batchWorkload struct {
	dataset string
	// batches returns the aggregate batches one evaluation runs.
	batches func(*datagen.Dataset) ([][]*lmfao.Query, error)
	// models goes from the database to the trained models, aggregates
	// included, and returns how many plans that took.
	models func(scope, *batchSystem) (plans int, err error)
	// cycle is the timed loop's repeating pattern: E evaluates the batches,
	// M learns the models.
	cycle string
}

type batchSystem struct {
	ds      *datagen.Dataset
	eng     *lmfao.Engine
	batches [][]*lmfao.Query
}

// evaluate plans and runs every batch, exactly as Engine.Run does, with the
// two steps timed apart.
func (sys *batchSystem) evaluate(s scope) (plan, exec time.Duration, out []*lmfao.BatchResult, err error) {
	for _, queries := range sys.batches {
		tm := s.begin("core.BuildPlan")
		p, err := sys.eng.PlanBatch(queries)
		d := tm.stop()
		if err != nil {
			return 0, 0, nil, err
		}
		s.r.add("core.plan_ms", ms(d))
		plan += d
		tm = s.begin("moo.RunPlan")
		res, err := sys.eng.RunPlan(p)
		exec += tm.stop()
		if err != nil {
			return 0, 0, nil, err
		}
		out = append(out, res)
	}
	return plan, exec, out, nil
}

func runBatch(r *run, w batchWorkload) error {
	sys, err := repeatSetup(r, func(s scope) (*batchSystem, error) {
		ds, tree, err := buildDataset(s, w.dataset, r.cfg.scale)
		if err != nil {
			return nil, err
		}
		sys := &batchSystem{ds: ds, eng: lmfao.NewEngineWithTree(ds.DB, tree, lmfao.DefaultOptions())}
		if sys.batches, err = w.batches(ds); err != nil {
			return nil, err
		}
		tm := s.begin("bench.cold_eval")
		_, _, _, err = sys.evaluate(s.under(tm))
		r.add("moo.cold_run_ms", ms(tm.stop()))
		return sys, err
	}, func(*batchSystem) {})
	if err != nil {
		return err
	}

	phase := r.top().begin("bench.timed")
	var evals, plans int
	var last []*lmfao.BatchResult
	// At least one whole cycle runs, however short --seconds is.
	for i := 0; i < len(w.cycle) || time.Since(phase.start).Seconds() < r.cfg.seconds; i++ {
		if w.cycle[i%len(w.cycle)] == 'E' {
			s := r.opScope(phase, evals, 1)
			evals++
			tm := s.begin("bench.batch_eval")
			_, exec, out, err := sys.evaluate(s.under(tm))
			d := tm.stop()
			if r.op(err) {
				r.addOp(s.rec, ms(d))
				r.add("moo.run_ms", ms(exec))
				last = out
			}
			continue
		}
		s := r.scopeOf(phase, i)
		tm := s.begin("bench.model")
		n, err := w.models(s.under(tm), sys)
		d := tm.stop()
		if r.op(err) {
			r.add("model", ms(d))
			plans = n
		}
	}
	phase.stop()
	if last == nil || len(r.samples["model"]) == 0 {
		return fmt.Errorf("no evaluation or no model succeeded")
	}

	fact := largest(sys.ds.DB)
	op := median(r.samples["op"])
	r.report("op_p50_ms", op, len(r.samples["op"]))
	r.report("op_tail_ms", median(r.samples["moo.cold_run_ms"]), setupRuns)
	r.report("work_per_s", float64(fact.Len())/(op/1e3), len(r.samples["op"]))
	r.report("derived_p50_ms", median(r.samples["model"]), len(r.samples["model"]))

	r.set("core.plans", float64(plans))
	planCounts(r, last[0].Plan)
	var bytes int64
	for _, res := range last {
		bytes += res.OutputBytes
	}
	r.set("moo.output_bytes", float64(bytes))
	r.set("moo.run_mrows_per_s", float64(fact.Len())/1e6/(median(r.samples["moo.run_ms"])/1e3))
	if r.cfg.trace {
		if err := probeSort(r, fact); err != nil {
			return err
		}
	}
	return checkAgainstBaseline(r, w.dataset, w.batches)
}

// timedRequerier is the Queryable handed to the tree learner: it forwards
// to a snapshot and times every refinement batch the learner issues.
type timedRequerier struct {
	lmfao.Queryable
	rq      lmfao.Requerier
	s       scope
	calls   int
	elapsed time.Duration
}

func (t *timedRequerier) Requery(queries []*lmfao.Query) ([]*lmfao.Result, error) {
	tm := t.s.begin("moo.Requery")
	out, err := t.rq.Requery(queries)
	t.calls++
	t.elapsed += tm.stop()
	return out, err
}

// runBatchScalar is workload batch_scalar: the covar-matrix and
// regression-tree-node batches over retailer, then ridge regression and a
// depth-3 regression tree learned from the engine.
func runBatchScalar(r *run) error {
	return runBatch(r, batchWorkload{
		dataset: "retailer",
		cycle:   "EEM",
		batches: func(ds *datagen.Dataset) ([][]*lmfao.Query, error) {
			node, err := workloads.RTNode(ds)
			return [][]*lmfao.Query{workloads.CovarMatrix(ds), node}, err
		},
		models: func(s scope, sys *batchSystem) (int, error) {
			db, spec := sys.ds.DB, workloads.LinRegSpec(sys.ds)
			tm := s.begin("moo.Run")
			sn, err := lmfao.RunQueryable(sys.eng, lmfao.CovarBatch(spec))
			tm.stop()
			if err != nil {
				return 0, err
			}
			tm = s.begin("ml.linreg.fit")
			model, err := lmfao.LearnLinearRegressionFrom(sn, db, spec)
			s.r.add("ml.linreg_fit_ms", ms(tm.stop()))
			if err != nil {
				return 0, err
			}
			for _, th := range model.Theta {
				if math.IsNaN(th) || math.IsInf(th, 0) {
					return 0, fmt.Errorf("ridge regression returned a non-finite parameter")
				}
			}

			treeSpec := workloads.RTSpec(sys.ds)
			treeSpec.MaxDepth = 3
			tm = s.begin("ml.tree.learn")
			rq := &timedRequerier{Queryable: sn, rq: sn, s: s.under(tm)}
			tree, err := lmfao.LearnDecisionTreeFrom(rq, db, treeSpec)
			d := tm.stop()
			if err != nil {
				return 0, err
			}
			if tree.Nodes < 3 {
				return 0, fmt.Errorf("regression tree has %d nodes, want a split", tree.Nodes)
			}
			s.r.set("ml.tree_requeries", float64(rq.calls))
			s.r.add("ml.tree_requery_ms", ms(rq.elapsed))
			s.r.add("ml.tree_self_ms", ms(d-rq.elapsed))
			return 1 + rq.calls, nil
		},
	})
}

// runBatchGroupBy is workload batch_groupby: the pairwise mutual-information
// and data-cube batches over favorita, then a Chow-Liu tree and the cube
// learned from the engine.
func runBatchGroupBy(r *run) error {
	cubeSpec := func(ds *datagen.Dataset) lmfao.CubeSpec {
		return lmfao.CubeSpec{Dims: ds.CubeDims, Measures: ds.CubeMeasures}
	}
	return runBatch(r, batchWorkload{
		dataset: "favorita",
		cycle:   "EM",
		batches: func(ds *datagen.Dataset) ([][]*lmfao.Query, error) {
			return [][]*lmfao.Query{lmfao.MIBatch(ds.MIAttrs), lmfao.CubeBatch(cubeSpec(ds))}, nil
		},
		models: func(s scope, sys *batchSystem) (int, error) {
			db, attrs := sys.ds.DB, sys.ds.MIAttrs
			tm := s.begin("moo.Run")
			sn, err := lmfao.RunQueryable(sys.eng, lmfao.MIBatch(attrs))
			tm.stop()
			if err != nil {
				return 0, err
			}
			tm = s.begin("ml.chowliu.fit")
			_, edges, err := lmfao.LearnChowLiuTreeFrom(sn, db, attrs)
			s.r.add("ml.chowliu_fit_ms", ms(tm.stop()))
			if err != nil {
				return 0, err
			}
			if len(edges) != len(attrs)-1 {
				return 0, fmt.Errorf("Chow-Liu tree has %d edges over %d attributes", len(edges), len(attrs))
			}

			spec := cubeSpec(sys.ds)
			tm = s.begin("moo.Run")
			sn, err = lmfao.RunQueryable(sys.eng, lmfao.CubeBatch(spec))
			tm.stop()
			if err != nil {
				return 0, err
			}
			tm = s.begin("ml.cube.fit")
			cube, err := lmfao.ComputeDataCubeFrom(sn, db, spec)
			s.r.add("ml.cube_fit_ms", ms(tm.stop()))
			if err != nil {
				return 0, err
			}
			if len(cube.Cuboids) != 1<<len(spec.Dims) {
				return 0, fmt.Errorf("data cube has %d cuboids over %d dimensions", len(cube.Cuboids), len(spec.Dims))
			}
			return 2, nil
		},
	})
}
