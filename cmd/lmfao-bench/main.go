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
// how each optimization layer contributes (README § Benchmarks).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ml/linreg"
	"repro/internal/ml/tree"
	"repro/internal/moo"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, prints the selected experiments to stdout and returns
// the exit status: 0 on success, 1 when an experiment fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmfao-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.String("table", "all", "which experiment: 1|2|3|4|5|fig5|all")
		scale    = fs.Float64("scale", 0.001, "dataset scale factor (1.0 = paper size)")
		seed     = fs.Int64("seed", 2019, "generator seed")
		runs     = fs.Int("runs", 2, "timed runs to average (after one warm-up)")
		datasets = fs.String("datasets", "", "comma-separated subset (default: all)")
		threads  = fs.Int("threads", 0, "engine threads (default: min(4, NumCPU))")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	h := &harness{out: stdout, scale: *scale, seed: *seed, runs: *runs, threads: *threads}
	// Experiments in the order -table all prints them.
	experiments := []struct {
		name string
		fn   func([]string) error
	}{
		{"1", h.table1}, {"2", h.table2}, {"3", h.table3},
		{"fig5", h.figure5}, {"4", h.table4}, {"5", h.table5},
	}
	known := *table == "all"
	for _, e := range experiments {
		known = known || e.name == *table
	}
	switch {
	case !known:
		return usageError(fs, "-table %q: want 1|2|3|4|5|fig5|all", *table)
	case *runs < 1:
		return usageError(fs, "-runs %d: want at least 1", *runs)
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return usageError(fs, "-scale %v: want a finite number > 0", *scale)
	}

	names := datagen.All()
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	for _, e := range experiments {
		if *table != "all" && *table != e.name {
			continue
		}
		if err := e.fn(names); err != nil {
			fmt.Fprintf(stderr, "lmfao-bench: %s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

// usageError reports a flag value the flag package accepted but the command
// cannot run, the way the flag package reports a malformed one.
func usageError(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "invalid value: "+format+"\n", args...)
	fs.Usage()
	return 2
}

type harness struct {
	out     io.Writer
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

func (h *harness) newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(h.out, 2, 4, 2, ' ', 0)
}

func (h *harness) table1(names []string) error {
	fmt.Fprintf(h.out, "\nTable 1: dataset characteristics (scale %g)\n", h.scale)
	w := h.newTab()
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
	fmt.Fprintf(h.out, "\nTable 2: aggregates (A), intermediates (I), views (V), groups (G), output size\n")
	w := h.newTab()
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
	fmt.Fprintf(h.out, "\nTable 3: aggregate batch runtimes — LMFAO vs DBX proxy (per-query streamed join)\n")
	w := h.newTab()
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
	fmt.Fprintf(h.out, "\nFigure 5: covar-matrix ablation (cumulative optimizations; speedup over previous level)\n")
	variants := []struct {
		name string
		opts moo.Options
	}{
		{"acdc (no opts)", moo.Options{Threads: 1}},
		{"+compilation", moo.Options{Compiled: true, Threads: 1}},
		{"+multi-output", moo.Options{Compiled: true, MultiOutput: true, Threads: 1}},
		{"+multi-root", moo.Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1}},
		{"+parallel", moo.Options{Compiled: true, MultiOutput: true, MultiRoot: true,
			Threads: moo.DefaultOptions().Threads, DomainParallelRows: 16384}},
	}
	w := h.newTab()
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
	fmt.Fprintf(h.out, "\nTable 4: learning linear regression and regression trees\n")
	w := h.newTab()
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
		// TensorFlow proxy: full-batch gradient descent over the flat join.
		tTF, err := h.timeIt(func() error {
			_, err := linreg.LearnMaterialized(flat, ds.DB, spec, 1, 1e-7)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\tLinear regression (materialized, 1 epoch; excl. join %s)\t%s\n",
			fmtDur(tJoin), fmtDur(tTF))
		// Equal-accuracy comparison: gradient descent over the flat data
		// needs many epochs to reach the accuracy LMFAO's conjugate gradient
		// reaches over the covar matrix (the paper notes TensorFlow "would
		// require more epochs to converge to the solution of LMFAO").
		tTFc, err := h.timeIt(func() error {
			_, err := linreg.LearnMaterialized(flat, ds.DB, spec, 100, 1e-7)
			return err
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

		// MADlib proxy: CART over the flat join.
		tRTm, err := h.timeIt(func() error {
			_, err := tree.LearnMaterialized(flat, ds.DB, tspec)
			return err
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
	fmt.Fprintf(h.out, "\nTable 5: classification trees over TPC-DS\n")
	w := h.newTab()
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
		_, err := tree.LearnMaterialized(flat, ds.DB, spec)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Classification tree (materialized; excl. join)\t%s\n", fmtDur(tCTm))
	return w.Flush()
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
