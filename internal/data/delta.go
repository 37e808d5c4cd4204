package data

import (
	"fmt"
	"math"
)

// Delta describes one batch of changes against a named base relation:
// inserted and deleted tuples in the relation's schema order. Deletes are
// matched against existing tuples by full-row value equality; aggregates over
// the sum-product semiring are self-inverting, so the incremental-maintenance
// layer treats a delete as a negative-weight insert.
type Delta struct {
	Relation string
	// Inserts and Deletes hold one column per relation attribute (schema
	// order); either may be nil/empty.
	Inserts []Column
	Deletes []Column
}

// InsertRows returns the number of inserted tuples.
func (d Delta) InsertRows() int { return blockLen(d.Inserts) }

// DeleteRows returns the number of deleted tuples.
func (d Delta) DeleteRows() int { return blockLen(d.Deletes) }

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return d.InsertRows() == 0 && d.DeleteRows() == 0 }

func blockLen(cols []Column) int {
	if len(cols) == 0 {
		return 0
	}
	return cols[0].Len()
}

// Validate checks both column blocks against the relation's schema.
func (d Delta) Validate(rel *Relation) error {
	if d.Inserts != nil {
		if _, err := rel.checkBlock(d.Inserts); err != nil {
			return err
		}
	}
	if d.Deletes != nil {
		if _, err := rel.checkBlock(d.Deletes); err != nil {
			return err
		}
	}
	return nil
}

// DeltaEntry is one applied change in a relation's delta log. Seq increases
// monotonically per relation; entry columns are snapshots owned by the log.
type DeltaEntry struct {
	Seq     int64
	Inserts []Column
	Deletes []Column
}

// Version returns the relation's mutation counter: 0 for a freshly built
// relation, incremented by every Append/DeleteRows. Caches keyed by relation
// content (sorted copies, statistics) must include the version. Safe to call
// concurrently with the single writer's mutations.
func (r *Relation) Version() int64 {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	return r.version
}

// DefaultDeltaLogCap is the per-relation delta-log retention bound used when
// none is configured (see SetDeltaLogCap): a long-lived relation under steady
// updates must not grow memory without bound. The oldest entries are dropped
// first; DeltaLogTruncatedThrough records the eviction high-water mark so
// consumers can detect the gap.
const DefaultDeltaLogCap = 1024

// SetDeltaLogCap bounds the relation's retained delta-log entries to n
// (clamped to at least 1). It overrides both DefaultDeltaLogCap and any
// database-wide default (Database.SetDeltaLogCap). Shrinking the cap takes
// effect on the next logged delta, not retroactively.
func (r *Relation) SetDeltaLogCap(n int) {
	if n < 1 {
		n = 1
	}
	r.logMu.Lock()
	r.logCap = n
	r.logMu.Unlock()
}

// DeltaLogCap returns the effective delta-log retention cap.
func (r *Relation) DeltaLogCap() int {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	return r.effectiveLogCap()
}

func (r *Relation) effectiveLogCap() int {
	if r.logCap > 0 {
		return r.logCap
	}
	return DefaultDeltaLogCap
}

// DeltaLog returns the applied delta entries with Seq > since, oldest first.
// Pass since = 0 for the full retained log. Safe to call concurrently with
// the single writer's mutations; entry tuple blocks are immutable snapshots.
//
// The log keeps at most DeltaLogCap recent entries (older ones are also
// reclaimed by TruncateDeltaLog), so the result can silently omit evicted
// changes: after truncation, DeltaLog(since) returns only the retained
// suffix, NOT an error or a sentinel. A consumer resuming from `since` must
// treat the result as complete only when
// since >= DeltaLogTruncatedThrough(); otherwise entries in
// (since, truncatedThrough] were evicted and the consumer's view of the
// relation can no longer be caught up from the log alone — it must fall
// back to a full re-read (e.g. a Session recompute).
func (r *Relation) DeltaLog(since int64) []DeltaEntry {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	var out []DeltaEntry
	for _, e := range r.log {
		if e.Seq > since {
			out = append(out, e)
		}
	}
	return out
}

// DeltaLogTruncatedThrough returns the highest Seq ever evicted from the
// delta log (0 when nothing has been evicted). DeltaLog(since) is a
// complete record of the relation's changes after `since` if and only if
// since >= DeltaLogTruncatedThrough(). Safe to call concurrently with the
// single writer's mutations.
func (r *Relation) DeltaLogTruncatedThrough() int64 {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	return r.logDropped
}

// TruncateDeltaLog drops log entries with Seq <= upTo, reclaiming their
// tuple snapshots. Pass the last Seq a consumer has durably processed. The
// dropped range is recorded in DeltaLogTruncatedThrough.
func (r *Relation) TruncateDeltaLog(upTo int64) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	keep := r.log[:0]
	for _, e := range r.log {
		if e.Seq > upTo {
			keep = append(keep, e)
		} else if e.Seq > r.logDropped {
			r.logDropped = e.Seq
		}
	}
	for i := len(keep); i < len(r.log); i++ {
		r.log[i] = DeltaEntry{}
	}
	r.log = keep
}

// logDeltaLocked appends an entry, enforcing the retention cap. Caller holds
// logMu. A cap shrunk below the current length (SetDeltaLogCap) evicts the
// whole overhang here, so `over` may exceed 1.
func (r *Relation) logDeltaLocked(e DeltaEntry) {
	r.log = append(r.log, e)
	max := r.effectiveLogCap()
	if len(r.log) > max {
		over := len(r.log) - max
		if dropped := r.log[over-1].Seq; dropped > r.logDropped {
			r.logDropped = dropped
		}
		copy(r.log, r.log[over:])
		for i := len(r.log) - over; i < len(r.log); i++ {
			r.log[i] = DeltaEntry{}
		}
		r.log = r.log[:len(r.log)-over]
	}
}

// mutated commits an in-place change of the rows: distinct counts may have
// shifted, and the version bump plus log entry land in one critical section,
// so a concurrent log reader never observes a version whose entry is
// missing. makeEntry builds the entry for the already-bumped version (nil
// for unlogged mutations).
func (r *Relation) mutated(makeEntry func(seq int64) DeltaEntry) {
	r.distinctMu.Lock()
	r.distinct = nil
	r.distinctMu.Unlock()
	r.logMu.Lock()
	r.version++
	if makeEntry != nil {
		r.logDeltaLocked(makeEntry(r.version))
	}
	r.logMu.Unlock()
}

// checkBlock validates a column block against the relation's schema: one
// column per attribute, kinds matching, equal lengths.
func (r *Relation) checkBlock(cols []Column) (int, error) {
	if len(cols) != len(r.Cols) {
		return 0, fmt.Errorf("data: relation %q: block has %d columns, want %d", r.Name, len(cols), len(r.Cols))
	}
	n := -1
	for i, c := range cols {
		if c.IsInt() != r.Cols[i].IsInt() {
			return 0, fmt.Errorf("data: relation %q column %d: kind mismatch", r.Name, i)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return 0, fmt.Errorf("data: relation %q column %d: length %d, want %d", r.Name, i, c.Len(), n)
		}
	}
	if n < 0 {
		n = 0
	}
	return n, nil
}

// Append adds a block of tuples to the relation and records the change in
// its delta log. An unsorted relation appends them behind its last row; a
// sorted one (SortBy, Restore with an order) keeps its sort order: the
// block is stably sorted by it and each tuple lands behind the existing
// rows of equal key. The relation's key indexes are patched in place (see
// mutate), and the columns keep capacity headroom, so a stream of balanced
// deltas stops reallocating.
func (r *Relation) Append(cols []Column) error {
	n, err := r.checkBlock(cols)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if err := r.mutate(nil, cols); err != nil {
		return err
	}
	ins := copyBlock(cols)
	r.mutated(func(seq int64) DeltaEntry { return DeltaEntry{Seq: seq, Inserts: ins} })
	return nil
}

// DeleteRows removes one matching tuple per row of the block, matching by
// full-row value equality. If any tuple has no remaining match the relation
// is left untouched — rows, version, delta log and key indexes — and an
// error is returned, so a failed delete cannot leave base data and
// maintained views inconsistent. Victims are found through a key index
// probe plus row match: on a sorted relation a binary search over the sort
// order, which needs no storage; otherwise an index over every discrete
// attribute, built on the first delete. The surviving rows close the gaps
// in place, keeping their order (and so a sort order).
func (r *Relation) DeleteRows(cols []Column) error {
	n, err := r.checkBlock(cols)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if err := r.mutate(cols, nil); err != nil {
		return err
	}
	del := copyBlock(cols)
	r.mutated(func(seq int64) DeltaEntry { return DeltaEntry{Seq: seq, Deletes: del} })
	return nil
}

// packRow appends the packed encoding of row i across cols: int64 values
// verbatim, floats by their IEEE bits (exact-match semantics).
func packRow(buf []byte, cols []Column, i int) []byte {
	for _, c := range cols {
		if c.IsInt() {
			buf = AppendKey(buf, c.Ints[i])
		} else {
			buf = AppendKey(buf, int64(math.Float64bits(c.Floats[i])))
		}
	}
	return buf
}

func copyBlock(cols []Column) []Column {
	out := make([]Column, len(cols))
	for i, c := range cols {
		if c.IsInt() {
			out[i] = Column{Ints: append([]int64{}, c.Ints...)}
		} else {
			out[i] = Column{Floats: append([]float64{}, c.Floats...)}
		}
	}
	return out
}

// ApplyDelta applies d to its base relation: deletes are validated and
// removed first, then inserts are added (see Append). Both halves land in the
// relation's delta log.
func (db *Database) ApplyDelta(d Delta) error {
	rel := db.Relation(d.Relation)
	if rel == nil {
		return fmt.Errorf("data: delta against unknown relation %q", d.Relation)
	}
	if d.DeleteRows() > 0 {
		if err := rel.DeleteRows(d.Deletes); err != nil {
			return err
		}
	}
	if d.InsertRows() > 0 {
		if err := rel.Append(d.Inserts); err != nil {
			return err
		}
	}
	return nil
}
