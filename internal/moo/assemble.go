package moo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ivm"
)

// Monoid result assembly. A query with generalized (monoid) aggregates is
// planned as its sum-product clone plus internal support queries — plain
// count queries over (group-by ∪ {folded attribute}) that the whole
// engine maintains like any other view (see internal/core's monoid
// support synthesis). This file folds those maintained support views into
// the user-visible result: for every group, each monoid column is the fold
// of the monoid over the group's surviving support values.
//
// The incremental path re-folds only the AFFECTED groups — the group
// projections of the maintenance round's support-view and output-view
// delta rows — and copies every other group's finalized columns from the
// previous assembled view. A delete that shrinks a group's support (the
// case invertible aggregates handle as negative inserts) therefore costs
// one re-fold of that group, driven by the same semi-join-restricted
// delta machinery that found it.

// assembleQuery builds user query qi's visible view from its raw output
// view and the support views in mat (indexed by view ID). prev is the
// previous assembled view and affected marks the raw rows whose monoid
// columns must be re-folded; prev == nil or affected == nil means fold
// everything. Groups absent from prev are always re-folded regardless of
// affected.
//
// Layout of the assembled view: the query's sum-aggregate columns
// (verbatim from the raw output view, absent for placeholder-only
// queries), then each monoid aggregate's finalized columns in declaration
// order, then the hidden tuple-count column when the plan tracks counts.
func assembleQuery(plan *core.Plan, qi int, raw *ViewData, mat []*ViewData, prev *ViewData, affected []bool) (*ViewData, error) {
	spec := plan.Monoids[qi]
	if spec == nil {
		return raw, nil
	}
	totalW := 0
	for _, c := range spec.Cols {
		totalW += c.Width
	}
	rawCountCol := -1
	countCols := 0
	if plan.CountCol != nil {
		rawCountCol = plan.CountCol[plan.OutputView[qi]]
		countCols = 1
	}
	rows := raw.NumRows()
	stride := spec.SumCols + totalW + countCols
	out := &ViewData{
		GroupBy: raw.GroupBy,
		Keys:    raw.Keys,
		Vals:    make([]float64, rows*stride),
		Stride:  stride,
		rows:    rows,
		order:   raw.order,
		nskey:   raw.nskey,
		box:     raw.box,
		dir:     raw.dir,
	}
	for i := 0; i < rows; i++ {
		dst := out.Vals[i*stride:]
		for c := 0; c < spec.SumCols; c++ {
			dst[c] = raw.Val(i, c)
		}
		if countCols == 1 {
			dst[stride-1] = raw.Val(i, rawCountCol)
		}
	}

	// refold[i] reports row i's monoid columns must be folded from support;
	// otherwise they copy from prev row prevRow[i]. With no prev everything
	// re-folds. prev shares raw's sort layout, so one forward walk pairs
	// their rows.
	refold := make([]bool, rows)
	prevRow := make([]int32, rows)
	p := 0
	for i := 0; i < rows; i++ {
		if prev == nil {
			refold[i] = true
			continue
		}
		for p < prev.rows && cmpRows(raw, i, prev, p) > 0 {
			p++
		}
		if p == prev.rows || cmpRows(raw, i, prev, p) != 0 {
			refold[i] = true // new group: nothing to copy from
			continue
		}
		prevRow[i] = int32(p)
		refold[i] = affected == nil || affected[i]
	}

	// Fold states for the re-folded rows, one scan per distinct support
	// view (monoid columns sharing a support share its scan).
	states := make([][]state, len(spec.Cols))
	for ci := range spec.Cols {
		states[ci] = make([]state, rows)
	}
	done := make(map[int]bool, len(spec.Cols))
	for ci := range spec.Cols {
		si := spec.Cols[ci].Support
		if done[si] {
			continue
		}
		done[si] = true
		var cols []int
		for cj := range spec.Cols {
			if spec.Cols[cj].Support == si {
				cols = append(cols, cj)
			}
		}
		sv := mat[plan.OutputView[si]]
		if sv == nil {
			return nil, fmt.Errorf("moo: support view for query %d not materialized", qi)
		}
		lead := spec.Cols[cols[0]]
		key := make([]int64, len(lead.KeyPos))
		for j := 0; j < sv.NumRows(); j++ {
			if sv.Val(j, 0) == 0 {
				continue
			}
			for k, kp := range lead.KeyPos {
				key[k] = sv.KeyAt(j, kp)
			}
			r := raw.Lookup(key...)
			if r < 0 || !refold[r] {
				continue
			}
			val := sv.KeyAt(j, lead.ValPos)
			for _, cj := range cols {
				m := spec.Cols[cj].M
				s := states[cj][r]
				if s == nil {
					s = m.Lift(val)
				} else {
					s = m.Combine(s, m.Lift(val))
				}
				states[cj][r] = s
			}
		}
	}

	// Finalize per row: folded states for re-folded rows, verbatim copies
	// from prev otherwise.
	off := spec.SumCols
	for ci, col := range spec.Cols {
		m := col.M
		for i := 0; i < rows; i++ {
			dst := out.Vals[i*stride+off : i*stride+off+col.Width]
			if refold[i] {
				s := states[ci][i]
				if s == nil {
					s = m.Identity()
				}
				m.Finalize(s, dst)
			} else {
				p := int(prevRow[i])
				copy(dst, prev.Vals[p*prev.Stride+off:p*prev.Stride+off+col.Width])
			}
		}
		off += col.Width
	}
	return out, nil
}

// state aliases the monoid state type locally (keeps the fold loop tidy).
type state = interface{}

// affectedGroups marks the raw output rows of query qi whose groups its
// maintenance round touched: the group projections of every support-delta
// row plus every raw-output delta row (zero- and negative-count delta rows
// included — a net-zero support change can still swing a fold), each found
// by raw.Lookup. touched is false when no relevant view produced a delta
// row, in which case the previous assembled view is still exact.
func affectedGroups(plan *core.Plan, qi int, raw *ViewData, deltas []*ViewData) (marks []bool, touched bool) {
	spec := plan.Monoids[qi]
	marks = make([]bool, raw.NumRows())
	mark := func(dv *ViewData, pos []int) {
		key := make([]int64, len(pos))
		for i := 0; i < dv.NumRows(); i++ {
			for k, kp := range pos {
				key[k] = dv.KeyAt(i, kp)
			}
			if r := raw.Lookup(key...); r >= 0 {
				marks[r] = true
			}
			touched = true
		}
	}
	if dv := deltas[plan.OutputView[qi]]; dv != nil {
		ident := make([]int, len(dv.GroupBy))
		for c := range ident {
			ident[c] = c
		}
		mark(dv, ident)
	}
	seen := make(map[int]bool, len(spec.Cols))
	for _, col := range spec.Cols {
		if seen[col.Support] {
			continue
		}
		seen[col.Support] = true
		if dv := deltas[plan.OutputView[col.Support]]; dv != nil {
			mark(dv, col.KeyPos)
		}
	}
	return marks, touched
}

// fillResults populates res.Results (one user-visible view per USER query
// — support queries never surface) plus the output/support byte counters
// from the materialized state. prevResults/deltas enable the incremental
// path: monoid queries whose raw output and support views produced no
// delta rows reuse the previous assembled view, and the rest re-fold only
// affected groups. Pass nil/nil for a from-scratch assembly (Run, WAL
// restore, sharded merges).
func fillResults(plan *core.Plan, mat []*ViewData, res *BatchResult, prevResults []*ViewData, deltas []*ViewData) error {
	res.Results = make([]*ViewData, plan.UserQueries)
	for qi := 0; qi < plan.UserQueries; qi++ {
		raw := mat[plan.OutputView[qi]]
		if plan.Monoids[qi] == nil {
			res.Results[qi] = raw
			res.OutputBytes += raw.SizeBytes()
			continue
		}
		var prev *ViewData
		var affected []bool
		if deltas != nil && prevResults != nil {
			prev = prevResults[qi]
			var touched bool
			affected, touched = affectedGroups(plan, qi, raw, deltas)
			if prev != nil && !touched {
				res.Results[qi] = prev
				res.OutputBytes += prev.SizeBytes()
				continue
			}
		}
		av, err := assembleQuery(plan, qi, raw, mat, prev, affected)
		if err != nil {
			return err
		}
		res.Results[qi] = av
		res.OutputBytes += av.SizeBytes()
	}
	for qi := plan.UserQueries; qi < len(plan.Queries); qi++ {
		if v := mat[plan.OutputView[qi]]; v != nil {
			res.ViewBytes += v.SizeBytes()
		}
	}
	return nil
}

// AssembleQuery builds user query qi's visible view from scratch out of
// materialized views indexed by view ID (the raw output view and every
// support view must be present). It is the merge hook for sharded reads:
// per-shard raw output and support views combine correctly under
// CombineViews (they are all plain count/sum views), after which this
// fold produces the merged user-visible view — monoid columns must never
// be summed across shards.
func AssembleQuery(plan *core.Plan, qi int, mat []*ViewData) (*ViewData, error) {
	if qi < 0 || qi >= plan.UserQueries {
		return nil, fmt.Errorf("moo: AssembleQuery: query index %d out of range", qi)
	}
	raw := mat[plan.OutputView[qi]]
	if raw == nil {
		return nil, fmt.Errorf("moo: AssembleQuery: output view for query %d not materialized", qi)
	}
	return assembleQuery(plan, qi, raw, mat, nil, nil)
}

// NewBatchFromMaterialized rebuilds a BatchResult from a plan plus its
// materialized view DAG (the WAL checkpoint restore path): user-visible
// results are re-assembled from the raw output and support views, which
// are exactly what checkpoints persist.
func NewBatchFromMaterialized(plan *core.Plan, mat []*ViewData, versions ivm.VersionVector) (*BatchResult, error) {
	res := &BatchResult{Plan: plan, Materialized: mat, Versions: versions}
	if err := fillResults(plan, mat, res, nil, nil); err != nil {
		return nil, err
	}
	for _, v := range plan.Views {
		if !v.IsOutput() && mat[v.ID] != nil {
			res.ViewBytes += mat[v.ID].SizeBytes()
		}
	}
	return res, nil
}
