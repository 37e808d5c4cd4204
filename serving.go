package lmfao

import (
	"fmt"

	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
)

// This file defines the serving API: the read/write contract every layer of
// the system publishes and every application consumes. The read side is
// Queryable — satisfied by *Snapshot, whether a session published it or
// RunQueryable wrapped a one-shot run — and the write/serve side is
// Maintainer, satisfied by *Session over any shard count, logged or not.
// Application entry points
// (BuildCovarMatrixFrom, LearnDecisionTreeFrom, …) take a Queryable, so a
// model can be re-fit from a live session between maintenance rounds with
// the exact code path that fits it from a one-shot engine run.

// Queryable is the read side of the serving API: one immutable, committed
// batch of group-by aggregate results, independent of how it was computed —
// a one-shot Engine run (RunQueryable) or a Session snapshot, merged across
// its shards. Its method set is the full read contract:
//
//	NumQueries() int
//	Result(queryIdx int) *Result
//	Lookup(queryIdx int, key ...int64) ([]float64, bool)
//	Versions() ShardVector
//
// NumQueries returns the size of the served batch. Result returns query
// queryIdx's materialized output view (batch order; read-only, possibly
// carrying a trailing hidden tuple-count column after the query's
// aggregates), or nil when the implementation holds no state for it. Lookup
// returns one group's aggregate row — exactly the query's aggregates in
// query order, hidden columns trimmed — with ok=false for absent groups.
// Versions returns the base-relation version metadata: one VersionVector
// per independent writer (length 1 for unsharded states; read-only).
//
// Every application entry point with a From suffix learns from a Queryable,
// provided the Queryable serves that application's canonical batch (see
// CovarBatch, PolynomialBatch, MIBatch, CubeBatch). Combine batches in one
// session and carve per-application windows with SubQueryable.
type Queryable interface {
	// NumQueries returns the number of queries in the served batch.
	NumQueries() int
	// Result returns query queryIdx's materialized output (read-only).
	Result(queryIdx int) *Result
	// Lookup returns one group's aggregate row, or ok=false if absent.
	Lookup(queryIdx int, key ...int64) ([]float64, bool)
	// Versions returns one VersionVector per independent writer.
	Versions() ShardVector
}

// Requerier is the optional refinement hook some Queryable implementations
// provide alongside the static read contract. Its method set:
//
//	Requery(queries []*Query) ([]*Result, error)
//
// Requery evaluates a fresh ad-hoc batch over the database behind the
// Queryable and returns one materialized view per query, batch order, each
// sorted by its group-by as engine outputs are (the decision-tree learner
// reads categories in row order and fails on rows out of order). The
// decision-tree learner (LearnDecisionTreeFrom) needs it: every tree level
// issues a new batch conditioned on its nodes' ancestor splits, which no
// precomputed snapshot can answer. A session's Snapshot implements it by
// running the batch on every shard's engine, serialized with that shard's
// maintenance, so a requery never races a writer — but it reflects the
// writers' current base data, which may be newer than the snapshot's
// pinned Versions. Quiesce updates (Session.Wait, or simply between
// synchronous Apply calls) when the refinement must agree with the
// snapshot exactly. RunQueryable's snapshot implements it by running on
// the wrapped engine directly.
type Requerier interface {
	// Requery evaluates a fresh batch behind the Queryable.
	Requery(queries []*Query) ([]*Result, error)
}

// Maintainer is the write/serve side of the serving API — the contract
// *Session satisfies over N ≥ 1 shard writers, logged or not, so
// serving-tier code never special-cases the shard count or durability. Its
// method set:
//
//	Run() (Queryable, error)
//	Apply(updates ...Update) ([]*ApplyStats, error)
//	ApplyAsync(updates ...Update) <-chan ApplyResult
//	Snapshot() Queryable
//	Wait()
//	Close()
//
// Run computes the batch from scratch and publishes (and returns) the first
// snapshot; it may be called again to force a full recompute. Apply mutates
// base data and incrementally maintains every view, publishing each
// committed round; ApplyAsync does the same off the caller's goroutine and
// delivers the one result on the returned channel. Snapshot returns the
// latest committed state (nil before the first Run) — lock-free, immutable,
// safe for unrestricted concurrent use. Wait blocks until every update
// accepted so far has committed (quiesce producers first: concurrent
// ApplyAsync callers make the drained condition a moving target). Close
// drains — updates accepted before the Close still commit — then
// permanently stops the maintainer: further Run/Apply/ApplyAsync calls
// fail, while published snapshots stay fully readable. Close is
// idempotent.
type Maintainer interface {
	// Run computes the batch from scratch and publishes a snapshot.
	Run() (Queryable, error)
	// Apply mutates base data and maintains every view incrementally.
	Apply(updates ...Update) ([]*ApplyStats, error)
	// ApplyAsync is Apply off the caller's goroutine.
	ApplyAsync(updates ...Update) <-chan ApplyResult
	// Snapshot returns the latest committed state, nil before Run.
	Snapshot() Queryable
	// Wait blocks until accepted updates have committed.
	Wait()
	// Close stops the maintainer; snapshots stay readable.
	Close()
}

// ErrSessionClosed is the sentinel error every Maintainer returns from
// Run/Apply/ApplyAsync once Close has been called (match with errors.Is).
// Serving-tier code uses it to distinguish a permanently shut-down
// maintainer — published snapshots stay readable — from a transient
// maintenance failure.
var ErrSessionClosed = errSessionClosed

// RunQueryable evaluates the batch once on eng and wraps the result in the
// serving contract: an immutable *Snapshot (epoch 1) answering Queryable
// reads from the materialized outputs, with Requery backed by eng. It is
// the bridge from the static engine API to the serving API — applications
// written against Queryable run unchanged over one-shot results. The
// engine stays caller-owned: do not run it concurrently with the returned
// adapter's Requery.
func RunQueryable(eng *Engine, queries []*Query) (*Snapshot, error) {
	res, err := eng.Run(queries)
	if err != nil {
		return nil, err
	}
	versions := res.Versions
	if versions == nil {
		versions = ivm.CaptureVersions(eng.DB())
	}
	return newPart(1, res, versions, func(qs []*query.Query) (*moo.BatchResult, error) {
		return eng.Run(qs)
	}), nil
}

// SubQueryable restricts q to the half-open query-index window [lo, hi):
// the returned Queryable serves queries lo..hi-1 of q as its own batch
// 0..hi-lo-1, sharing q's state. It is the carving tool for combined
// batches — one session can maintain several applications' batches
// concatenated, and each application reads its window:
//
//	batch := append(lmfao.CovarBatch(spec), lmfao.MIBatch(attrs)...)
//	...
//	covar, _ := lmfao.SubQueryable(sess.Snapshot(), 0, len(lmfao.CovarBatch(spec)))
//
// If q implements Requerier, so does the returned Queryable (requeries are
// batch-agnostic and delegate unchanged).
func SubQueryable(q Queryable, lo, hi int) (Queryable, error) {
	if q == nil {
		return nil, fmt.Errorf("lmfao: SubQueryable over a nil Queryable")
	}
	if lo < 0 || hi < lo || hi > q.NumQueries() {
		return nil, fmt.Errorf("lmfao: SubQueryable window [%d, %d) out of range (batch has %d queries)", lo, hi, q.NumQueries())
	}
	sub := subQueryable{q: q, lo: lo, hi: hi}
	if rq, ok := q.(Requerier); ok {
		return subRequeryable{subQueryable: sub, rq: rq}, nil
	}
	return sub, nil
}

// subQueryable windows another Queryable's query indices.
type subQueryable struct {
	q      Queryable
	lo, hi int
}

// NumQueries returns the window width.
func (s subQueryable) NumQueries() int { return s.hi - s.lo }

// Result translates the window index and forwards (nil out of window).
func (s subQueryable) Result(queryIdx int) *Result {
	if queryIdx < 0 || s.lo+queryIdx >= s.hi {
		return nil
	}
	return s.q.Result(s.lo + queryIdx)
}

// Lookup translates the window index and forwards (miss out of window).
func (s subQueryable) Lookup(queryIdx int, key ...int64) ([]float64, bool) {
	if queryIdx < 0 || s.lo+queryIdx >= s.hi {
		return nil, false
	}
	return s.q.Lookup(s.lo+queryIdx, key...)
}

// Versions forwards the underlying version metadata unchanged.
func (s subQueryable) Versions() ShardVector { return s.q.Versions() }

// subRequeryable additionally forwards the refinement hook.
type subRequeryable struct {
	subQueryable
	rq Requerier
}

// Requery forwards to the underlying hook (requeries are batch-agnostic).
func (s subRequeryable) Requery(queries []*Query) ([]*Result, error) {
	return s.rq.Requery(queries)
}
