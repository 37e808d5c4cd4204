// Command lmfao-bench regenerates the paper's evaluation tables and figure
// over the synthetic datasets:
//
//	lmfao-bench -table 1           # dataset characteristics (Table 1)
//	lmfao-bench -table 2           # planner statistics A/I/V/G (Table 2)
//	lmfao-bench -table 3           # aggregate batches vs DBX proxy (Table 3)
//	lmfao-bench -table 4           # learning LR + regression trees (Table 4)
//	lmfao-bench -table 5           # classification trees, TPC-DS (Table 5)
//	lmfao-bench -table fig5        # optimization ablation (Figure 5)
//	lmfao-bench -table all -scale 0.002 -runs 4
//
// Absolute numbers depend on the machine and the synthetic scale; what must
// reproduce is the paper's shape: who wins, by what order of magnitude, and
// how each optimization layer contributes (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/workloads"
)

func main() {
	var (
		table    = flag.String("table", "all", "which experiment: 1|2|3|4|5|fig5|all")
		scale    = flag.Float64("scale", 0.001, "dataset scale factor (1.0 = paper size)")
		seed     = flag.Int64("seed", 2019, "generator seed")
		runs     = flag.Int("runs", 2, "timed runs to average (after one warm-up)")
		datasets = flag.String("datasets", "", "comma-separated subset (default: all)")
		threads  = flag.Int("threads", 0, "engine threads (default: min(4, NumCPU))")

		updateFrac    = flag.Float64("update-frac", 0.01, "update-batch size as a fraction of the target relation's rows")
		updateBatches = flag.Int("update-batches", 3, "update batches to apply and time")

		shards       = flag.Int("shards", 0, "benchmark sharded maintenance throughput at N shards vs 1 shard (default dataset: retailer)")
		shardBatches = flag.Int("shard-batches", 32, "update batches to stream through the sharded session")
		shardRows    = flag.Int("shard-rows", 256, "rows per sharded update batch (half inserts, half deletes)")
		benchJSON    = flag.String("bench-json", "", "write the -shards/-apps benchmark result as JSON to this file")

		apps = flag.Bool("apps", false, "benchmark application re-fit from serving snapshots (1/2/4 shards) vs engine recompute under an update stream (default dataset: retailer; uses -update-frac and -update-batches)")

		monoidMode = flag.Bool("monoid", false, "benchmark maintained monoid aggregates (MIN/MAX, COUNT DISTINCT, top-k) vs recompute under dimension deltas (default dataset: retailer; uses -update-frac and -update-batches; writes BENCH_monoid.json unless -bench-json overrides)")

		walMode    = flag.Bool("wal", false, "benchmark WAL-logged vs unlogged maintenance and recovery time vs log-suffix length (default dataset: retailer; uses -update-frac; writes BENCH_wal.json unless -bench-json overrides)")
		walBatches = flag.Int("wal-batches", 32, "update batches for the -wal logged-vs-unlogged stream")

		serveMode    = flag.Bool("serve", false, "benchmark the HTTP serving tier: lookup latency under a maintenance stream, closed and open loop plus a shed-load phase (default dataset: retailer; writes BENCH_serve.json unless -bench-json overrides)")
		serveWorkers = flag.Int("serve-workers", 4, "closed-loop concurrent clients for -serve")
		serveRate    = flag.Int("serve-rate", 200, "open-loop arrival rate, requests/s, for -serve")
		serveSeconds = flag.Int("serve-seconds", 2, "duration of each -serve load phase, seconds")
	)
	flag.Parse()

	if *shards > 0 {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			// Partition pruning needs a non-toy fact table to show; default
			// the shard bench to the maintenance-bench scale.
			*scale = 0.01
		}
		h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
		if err := h.shardBench(updateDatasets(*datasets), *shards, *shardBatches, *shardRows, *benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "lmfao-bench: shards: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *apps {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			// Match the maintenance-bench scale: refit-vs-recompute needs a
			// non-toy fact table to show the aggregate-recomputation cost.
			*scale = 0.01
		}
		h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
		if err := h.appsBench(updateDatasets(*datasets), *updateFrac, *updateBatches, *benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "lmfao-bench: apps: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *walMode {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			// Log overhead only means something against non-toy maintenance
			// work; match the maintenance-bench scale.
			*scale = 0.01
		}
		path := *benchJSON
		if path == "" {
			path = "BENCH_wal.json"
		}
		h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
		if err := h.walBench(updateDatasets(*datasets), *updateFrac, *walBatches, path); err != nil {
			fmt.Fprintf(os.Stderr, "lmfao-bench: wal: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveMode {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			// Serving latency against a toy snapshot is meaningless; match
			// the maintenance-bench scale.
			*scale = 0.01
		}
		path := *benchJSON
		if path == "" {
			path = "BENCH_serve.json"
		}
		h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
		if err := h.serveBench(updateDatasets(*datasets), *serveWorkers, *serveRate, *serveSeconds, path); err != nil {
			fmt.Fprintf(os.Stderr, "lmfao-bench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *monoidMode {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			// The re-fold-vs-recompute gap only shows against a non-toy fact
			// scan; match the maintenance-bench scale.
			*scale = 0.01
		}
		path := *benchJSON
		if path == "" {
			path = "BENCH_monoid.json"
		}
		h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
		if err := h.monoidBench(updateDatasets(*datasets), *updateFrac, *updateBatches, path); err != nil {
			fmt.Fprintf(os.Stderr, "lmfao-bench: monoid: %v\n", err)
			os.Exit(1)
		}
		return
	}

	names := datagen.All()
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	h := &harness{scale: *scale, seed: *seed, runs: *runs, threads: *threads}
	run := func(name string, fn func([]string) error) {
		if *table == "all" || *table == name {
			if err := fn(names); err != nil {
				fmt.Fprintf(os.Stderr, "lmfao-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	run("1", h.table1)
	run("2", h.table2)
	run("3", h.table3)
	run("fig5", h.figure5)
	run("4", h.table4)
	run("5", h.table5)
}

type harness struct {
	scale   float64
	seed    int64
	runs    int
	threads int
	cache   map[string]*datagen.Dataset
}

func (h *harness) dataset(name string) (*datagen.Dataset, error) {
	if h.cache == nil {
		h.cache = map[string]*datagen.Dataset{}
	}
	if ds, ok := h.cache[name]; ok {
		return ds, nil
	}
	build, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	ds, err := build(datagen.Config{Scale: h.scale, Seed: h.seed})
	if err != nil {
		return nil, err
	}
	h.cache[name] = ds
	return ds, nil
}

func (h *harness) options() moo.Options {
	opts := moo.DefaultOptions()
	if h.threads > 0 {
		opts.Threads = h.threads
	}
	return opts
}

// timeIt runs fn once for warm-up, then averages h.runs timed runs (the
// paper's protocol).
func (h *harness) timeIt(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var total time.Duration
	for i := 0; i < h.runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(h.runs), nil
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func (h *harness) table1(names []string) error {
	fmt.Printf("\nTable 1: dataset characteristics (scale %g)\n", h.scale)
	w := newTab()
	fmt.Fprintln(w, "\t"+strings.Join(names, "\t"))
	rows := map[string][]string{}
	order := []string{"Tuples in Database", "Size of Database", "Tuples in Join Result",
		"Size of Join Result", "Relations", "Attributes", "Categorical Attributes"}
	for _, name := range names {
		ds, err := h.dataset(name)
		if err != nil {
			return err
		}
		flat, err := ds.Tree.MaterializeAll("flat")
		if err != nil {
			return err
		}
		rows["Tuples in Database"] = append(rows["Tuples in Database"], human(ds.DB.TotalTuples()))
		rows["Size of Database"] = append(rows["Size of Database"], humanBytes(ds.DB.SizeBytes()))
		rows["Tuples in Join Result"] = append(rows["Tuples in Join Result"], human(flat.Len()))
		rows["Size of Join Result"] = append(rows["Size of Join Result"],
			humanBytes(int64(flat.Len())*int64(len(flat.Attrs))*8))
		rows["Relations"] = append(rows["Relations"], fmt.Sprint(len(ds.DB.Relations())))
		rows["Attributes"] = append(rows["Attributes"], fmt.Sprint(ds.DB.NumAttrs()))
		nCat := 0
		for i := 0; i < ds.DB.NumAttrs(); i++ {
			if ds.DB.Attribute(lmfao.AttrID(i)).Kind == lmfao.Categorical {
				nCat++
			}
		}
		rows["Categorical Attributes"] = append(rows["Categorical Attributes"], fmt.Sprint(nCat))
	}
	for _, r := range order {
		fmt.Fprintln(w, r+"\t"+strings.Join(rows[r], "\t"))
	}
	return w.Flush()
}

func (h *harness) table2(names []string) error {
	fmt.Printf("\nTable 2: aggregates (A), intermediates (I), views (V), groups (G), output size\n")
	w := newTab()
	fmt.Fprintln(w, "dataset\tbatch\tA\tI\tV\tG\tsize")
	for _, name := range names {
		ds, err := h.dataset(name)
		if err != nil {
			return err
		}
		for _, wl := range []string{"covar", "rtnode", "mi", "cube"} {
			batch, err := workloads.ByName(wl, ds)
			if err != nil {
				return err
			}
			plan, err := core.BuildPlan(ds.Tree, batch, core.PlanOptions{MultiRoot: true, MultiOutput: true})
			if err != nil {
				return err
			}
			eng := moo.NewEngineWithTree(ds.DB, ds.Tree, h.options())
			res, err := eng.Run(batch)
			if err != nil {
				return err
			}
			s := plan.Stats
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
				name, wl, s.AppAggregates, s.IntermediateAggs, s.Views, s.Groups,
				humanBytes(res.OutputBytes))
		}
	}
	return w.Flush()
}

func (h *harness) table3(names []string) error {
	fmt.Printf("\nTable 3: aggregate batch runtimes — LMFAO vs DBX proxy (per-query streamed join)\n")
	w := newTab()
	fmt.Fprintln(w, "batch\tsystem\t"+strings.Join(names, "\t"))
	for _, wl := range workloads.Names() {
		var lmfaoRow, dbxRow, speedupRow []string
		for _, name := range names {
			ds, err := h.dataset(name)
			if err != nil {
				return err
			}
			batch, err := workloads.ByName(wl, ds)
			if err != nil {
				return err
			}
			eng := moo.NewEngineWithTree(ds.DB, ds.Tree, h.options())
			tLmfao, err := h.timeIt(func() error {
				_, err := eng.Run(batch)
				return err
			})
			if err != nil {
				return err
			}
			base := baseline.NewWithTree(ds.DB, ds.Tree)
			st, err := baseline.NewStreamer(base)
			if err != nil {
				return err
			}
			tDbx, err := h.timeIt(func() error {
				_, err := st.RunBatchStreaming(batch)
				return err
			})
			if err != nil {
				return err
			}
			lmfaoRow = append(lmfaoRow, fmtDur(tLmfao))
			dbxRow = append(dbxRow, fmtDur(tDbx))
			speedupRow = append(speedupRow, fmt.Sprintf("%.1fx", float64(tDbx)/float64(tLmfao)))
		}
		fmt.Fprintf(w, "%s\tLMFAO\t%s\n", wl, strings.Join(lmfaoRow, "\t"))
		fmt.Fprintf(w, "\tDBX-proxy\t%s\n", strings.Join(dbxRow, "\t"))
		fmt.Fprintf(w, "\tspeedup\t%s\n", strings.Join(speedupRow, "\t"))
	}
	return w.Flush()
}

func (h *harness) figure5(names []string) error {
	fmt.Printf("\nFigure 5: covar-matrix ablation (cumulative optimizations; speedup over previous level)\n")
	variants := []struct {
		name string
		opts moo.Options
	}{
		{"acdc (no opts)", moo.Options{Threads: 1}},
		{"+compilation", moo.Options{Compiled: true, Threads: 1}},
		{"+multi-output", moo.Options{Compiled: true, MultiOutput: true, Threads: 1}},
		{"+multi-root", moo.Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1}},
		{"+parallel", moo.Options{Compiled: true, MultiOutput: true, MultiRoot: true,
			Threads: fig5Threads(), DomainParallelRows: 16384}},
	}
	w := newTab()
	fmt.Fprintln(w, "level\t"+strings.Join(names, "\t"))
	prev := map[string]time.Duration{}
	for _, v := range variants {
		var row []string
		for _, name := range names {
			ds, err := h.dataset(name)
			if err != nil {
				return err
			}
			batch := workloads.CovarMatrix(ds)
			eng := moo.NewEngineWithTree(ds.DB, ds.Tree, v.opts)
			t, err := h.timeIt(func() error {
				_, err := eng.Run(batch)
				return err
			})
			if err != nil {
				return err
			}
			cell := fmtDur(t)
			if p, ok := prev[name]; ok {
				cell += fmt.Sprintf(" (%.1fx)", float64(p)/float64(t))
			}
			prev[name] = t
			row = append(row, cell)
		}
		fmt.Fprintln(w, v.name+"\t"+strings.Join(row, "\t"))
	}
	return w.Flush()
}

func (h *harness) table4(names []string) error {
	fmt.Printf("\nTable 4: learning linear regression and regression trees\n")
	w := newTab()
	fmt.Fprintln(w, "dataset\tstep\ttime")
	for _, name := range []string{"retailer", "favorita"} {
		if !contains(names, name) {
			continue
		}
		ds, err := h.dataset(name)
		if err != nil {
			return err
		}
		tJoin, err := h.timeIt(func() error {
			_, err := ds.Tree.MaterializeAll("flat")
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\tJoin (PSQL proxy)\t%s\n", name, fmtDur(tJoin))

		spec := workloads.LinRegSpec(ds)
		eng := moo.NewEngineWithTree(ds.DB, ds.Tree, h.options())
		tLR, err := h.timeIt(func() error {
			_, err := lmfao.LearnLinearRegression(eng, spec)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tLinear regression (LMFAO)\t%s\n", fmtDur(tLR))

		base := baseline.NewWithTree(ds.DB, ds.Tree)
		flat, err := base.Materialize()
		if err != nil {
			return err
		}
		tTF, err := h.timeIt(func() error {
			return learnMaterializedLR(flat, ds, spec, 1)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tLinear regression (materialized, 1 epoch; excl. join %s)\t%s\n",
			fmtDur(tJoin), fmtDur(tTF))
		// Equal-accuracy comparison: gradient descent over the flat data
		// needs many epochs to reach the accuracy LMFAO's BGD reaches over
		// the covar matrix (the paper notes TensorFlow "would require more
		// epochs to converge to the solution of LMFAO").
		tTFc, err := h.timeIt(func() error {
			return learnMaterializedLR(flat, ds, spec, 100)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tLinear regression (materialized, 100 epochs; excl. join)\t%s\n", fmtDur(tTFc))

		tspec := workloads.RTSpec(ds)
		tRT, err := h.timeIt(func() error {
			_, err := lmfao.LearnDecisionTree(eng, tspec)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tRegression tree (LMFAO, depth 4)\t%s\n", fmtDur(tRT))

		tRTm, err := h.timeIt(func() error {
			return learnMaterializedTree(flat, ds, name)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tRegression tree (materialized; excl. join)\t%s\n", fmtDur(tRTm))
	}
	return w.Flush()
}

func (h *harness) table5(names []string) error {
	if !contains(names, "tpcds") {
		return nil
	}
	fmt.Printf("\nTable 5: classification trees over TPC-DS\n")
	w := newTab()
	ds, err := h.dataset("tpcds")
	if err != nil {
		return err
	}
	tJoin, err := h.timeIt(func() error {
		_, err := ds.Tree.MaterializeAll("flat")
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Join (PSQL proxy)\t%s\n", fmtDur(tJoin))
	spec := workloads.CTSpec(ds)
	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, h.options())
	tCT, err := h.timeIt(func() error {
		_, err := lmfao.LearnDecisionTree(eng, spec)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Classification tree (LMFAO, depth 4)\t%s\n", fmtDur(tCT))
	base := baseline.NewWithTree(ds.DB, ds.Tree)
	flat, err := base.Materialize()
	if err != nil {
		return err
	}
	tCTm, err := h.timeIt(func() error {
		return learnMaterializedTree(flat, ds, "tpcds")
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Classification tree (materialized; excl. join)\t%s\n", fmtDur(tCTm))
	return w.Flush()
}

// fig5Threads matches the paper's 4-thread setup without oversubscribing
// smaller hosts.
func fig5Threads() int {
	t := runtime.NumCPU()
	if t > 4 {
		t = 4
	}
	if t < 1 {
		t = 1
	}
	return t
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func human(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// learnMaterializedLR is the TensorFlow proxy: gradient descent over the
// flat training set.
func learnMaterializedLR(flat *lmfao.Relation, ds *datagen.Dataset, spec lmfao.LinRegSpec, epochs int) error {
	_, err := materializedLR(flat, ds, spec, epochs)
	return err
}

func learnMaterializedTree(flat *lmfao.Relation, ds *datagen.Dataset, name string) error {
	var spec lmfao.TreeSpec
	if name == "tpcds" {
		spec = workloads.CTSpec(ds)
	} else {
		spec = workloads.RTSpec(ds)
	}
	_, err := materializedTree(flat, ds, spec)
	return err
}

var _ = query.CountAgg // keep the import for workload extensions
