package oracletest

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/data"
	"repro/internal/moo"
	"repro/internal/query"
)

// Tolerance selects the comparison mode: Exact demands bit-identical
// float64s (sound for dyadic-valued generated data, where every evaluation
// order yields the same exact result), Approx allows the relative drift
// inherent to reordered float sums over arbitrary real data.
type Tolerance int

const (
	Exact Tolerance = iota
	Approx
)

func (tol Tolerance) equal(a, b float64) bool {
	if a == b {
		return true
	}
	if tol == Exact {
		return false
	}
	d := math.Abs(a - b)
	return d <= 1e-6 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// EngineVariants are the engine configurations the oracle cross-checks:
// single-threaded and parallel, compiled and interpreted, with and without
// the logical optimizations.
func EngineVariants() map[string]moo.Options {
	return map[string]moo.Options{
		"1thread-compiled": {MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1},
		"1thread-interp":   {MultiRoot: true, MultiOutput: true, Threads: 1},
		"nthread-compiled": {MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 4},
		"nthread-interp":   {MultiRoot: true, MultiOutput: true, Threads: 3},
		"acdc":             {Threads: 1},
	}
}

// viewRows flattens a materialized view into packed-key → aggregate rows,
// keeping only the first ncols columns (pass -1 for all: hidden tuple-count
// columns included).
func viewRows(v *moo.ViewData, ncols int) map[string][]float64 {
	if ncols < 0 || ncols > v.Stride {
		ncols = v.Stride
	}
	out := make(map[string][]float64, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		row := make([]float64, ncols)
		for c := 0; c < ncols; c++ {
			row[c] = v.Val(i, c)
		}
		out[data.PackKey(v.Key(i)...)] = row
	}
	return out
}

func diffRows(label string, got, want map[string][]float64, tol Tolerance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for key, wrow := range want {
		grow, ok := got[key]
		if !ok {
			return fmt.Errorf("%s: missing key %v", label, unpack(key))
		}
		if len(grow) != len(wrow) {
			return fmt.Errorf("%s: key %v has %d cols, want %d", label, unpack(key), len(grow), len(wrow))
		}
		for c := range wrow {
			if !tol.equal(grow[c], wrow[c]) {
				return fmt.Errorf("%s: key %v col %d: got %v want %v", label, unpack(key), c, grow[c], wrow[c])
			}
		}
	}
	return nil
}

func unpack(key string) []int64 {
	out := make([]int64, data.KeyLen(key))
	data.UnpackKey(key, out)
	return out
}

// CheckBatch runs the batch under every engine variant and compares each
// query's output against the brute-force baseline.
func CheckBatch(db *data.Database, queries []*query.Query, tol Tolerance) error {
	base, err := baseline.New(db)
	if err != nil {
		return err
	}
	want, err := base.Run(queries)
	if err != nil {
		return err
	}
	for name, opts := range EngineVariants() {
		eng, err := moo.NewEngine(db, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := eng.Run(queries)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := compareToBaseline(name, res, queries, want, tol); err != nil {
			return err
		}
	}
	return nil
}

func compareToBaseline(name string, res *moo.BatchResult, queries []*query.Query, want []*baseline.Result, tol Tolerance) error {
	for qi, q := range queries {
		got := viewRows(res.Results[qi], q.NumCols())
		if err := diffRows(fmt.Sprintf("%s/%s", name, q.Name), got, want[qi].Rows, tol); err != nil {
			return err
		}
	}
	return nil
}

// CheckMaintained compares a maintained batch result against (a) the
// baseline over the database's current state and (b) a from-scratch run of
// an identically configured engine — the latter checks every internal view
// of the DAG, not just the outputs.
func CheckMaintained(eng *moo.Engine, res *moo.BatchResult, queries []*query.Query, tol Tolerance) error {
	base, err := baseline.New(eng.DB())
	if err != nil {
		return err
	}
	want, err := base.Run(queries)
	if err != nil {
		return err
	}
	if err := compareToBaseline("maintained", res, queries, want, tol); err != nil {
		return err
	}

	// Recompute the SAME plan from scratch: replanning could pick different
	// roots (statistics drifted with the deltas), which would make view IDs
	// incomparable.
	fresh := moo.NewEngineWithTree(eng.DB(), eng.Tree(), eng.Options())
	full, err := fresh.RunPlan(res.Plan)
	if err != nil {
		return err
	}
	for vid := range full.Materialized {
		got := viewRows(res.Materialized[vid], -1)
		wantv := viewRows(full.Materialized[vid], -1)
		if err := diffRows(fmt.Sprintf("view %d", vid), got, wantv, tol); err != nil {
			return err
		}
	}
	return nil
}
