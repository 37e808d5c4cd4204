package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
)

// monoidBench measures incrementally maintained monoid aggregates — MIN/MAX
// and COUNT DISTINCT, which fall outside the sum-product semiring and are
// maintained through internal support views — against full recomputation,
// under small dimension-table update streams. Deletes are the interesting
// half: an invertible aggregate subtracts, but a monoid aggregate must
// re-fold every group whose support shrank, and this bench shows that the
// affected-group re-fold still beats recomputing the batch from scratch by
// a wide margin. Results go to stdout and, as JSON, to jsonPath.
func (h *harness) monoidBench(names []string, frac float64, batches int, jsonPath string) error {
	fmt.Printf("\nMaintained monoid aggregates (MIN/MAX, COUNT DISTINCT) vs recompute (delta = %.2g of relation, %d update batches)\n",
		frac, batches)
	w := newTab()
	fmt.Fprintln(w, "dataset\trelation\t+rows\t-rows\tmaintained\trecompute\tspeedup")

	type relResult struct {
		Relation     string  `json:"relation"`
		InsRows      int     `json:"ins_rows"`
		DelRows      int     `json:"del_rows"`
		MaintainedMS float64 `json:"maintained_ms"`
		RecomputeMS  float64 `json:"recompute_ms"`
		Speedup      float64 `json:"speedup"`
	}
	type benchResult struct {
		Dataset   string      `json:"dataset"`
		Scale     float64     `json:"scale"`
		Frac      float64     `json:"frac"`
		Batches   int         `json:"batches"`
		Queries   []string    `json:"queries"`
		Relations []relResult `json:"relations"`
	}

	var results []benchResult
	for _, name := range names {
		ds, err := h.dataset(name)
		if err != nil {
			return err
		}
		queries := monoidBatch(ds)
		opts := h.options()
		opts.TrackCounts = true

		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
		recompute := moo.NewEngineWithTree(ds.DB, ds.Tree, opts)
		res, err := eng.Run(queries)
		if err != nil {
			return err
		}
		if _, err := recompute.RunPlan(res.Plan); err != nil { // warm-up
			return err
		}

		br := benchResult{Dataset: name, Scale: h.scale, Frac: frac, Batches: batches}
		for _, q := range queries {
			br.Queries = append(br.Queries, q.Format(ds.DB))
		}
		rng := rand.New(rand.NewSource(h.seed))
		fact := largestRelation(ds.DB)
		for _, rel := range ds.DB.Relations() {
			// Dimension deltas only: fact deltas take the invertible path;
			// a dimension delete is what forces the
			// non-invertible re-fold through the semi-join machinery.
			if rel.Name == fact.Name || ds.Tree.NodeByRelation(rel.Name) == nil {
				continue
			}
			// Untimed warm-up: first Apply compiles kernels and builds the
			// join-key indexes.
			warm := randomDelta(rng, rel, frac)
			if err := ds.DB.ApplyDelta(warm); err != nil {
				return err
			}
			if res, _, err = eng.Apply(res, warm); err != nil {
				return fmt.Errorf("%s/%s: warm-up: %w", name, rel.Name, err)
			}
			if _, err := recompute.RunPlan(res.Plan); err != nil {
				return err
			}

			var maintained time.Duration
			rr := relResult{Relation: rel.Name}
			for b := 0; b < batches; b++ {
				delta := randomDelta(rng, rel, frac)
				if err := ds.DB.ApplyDelta(delta); err != nil {
					return err
				}
				rr.InsRows += delta.InsertRows()
				rr.DelRows += delta.DeleteRows()
				start := time.Now()
				r, _, err := eng.Apply(res, delta)
				if err != nil {
					return fmt.Errorf("%s/%s: apply: %w", name, rel.Name, err)
				}
				maintained += time.Since(start)
				res = r
			}
			start := time.Now()
			if _, err := recompute.RunPlan(res.Plan); err != nil {
				return err
			}
			recomputeTotal := time.Duration(batches) * time.Since(start)

			rr.MaintainedMS = float64(maintained.Microseconds()) / float64(batches) / 1000
			rr.RecomputeMS = float64(recomputeTotal.Microseconds()) / float64(batches) / 1000
			rr.Speedup = float64(recomputeTotal) / float64(maintained)
			br.Relations = append(br.Relations, rr)
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%s\t%.1f×\n",
				name, rel.Name, rr.InsRows, rr.DelRows,
				fmtDur(maintained/time.Duration(batches)),
				fmtDur(recomputeTotal/time.Duration(batches)), rr.Speedup)
		}
		results = append(results, br)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

// monoidBatch builds the measured batch over a dataset's categorical pools:
// one MIN/MAX query and one COUNT DISTINCT query, both grouped by a cube
// dimension, plus a top-3 query — all pure monoid (the planner injects its
// hidden placeholder count).
func monoidBatch(ds *datagen.Dataset) []*query.Query {
	minmax := query.NewQuery("minmax", ds.CubeDims[:1])
	minmax.MonoidAggs = []query.MonoidAgg{
		query.MinOf(ds.Categorical[0]), query.MaxOf(ds.Categorical[0])}
	distinct := query.NewQuery("distinct", ds.CubeDims[1:2])
	distinct.MonoidAggs = []query.MonoidAgg{query.DistinctOf(ds.Categorical[0])}
	topk := query.NewQuery("topk", ds.CubeDims[1:2])
	topk.MonoidAggs = []query.MonoidAgg{query.TopKOf(ds.Categorical[0], 3)}
	return []*query.Query{minmax, distinct, topk}
}
