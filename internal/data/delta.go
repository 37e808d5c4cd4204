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

// Version returns the relation's mutation counter: 0 for a freshly built
// relation, one step per applied delta (ApplyDelta, Append, DeleteRows).
// Caches keyed by relation content (sorted copies, statistics) must include
// the version. Safe to call concurrently with the single writer's
// mutations.
func (r *Relation) Version() int64 { return r.version.Load() }

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

// ApplyDelta applies d's deletes and inserts to the relation as one
// mutation (d.Relation is not consulted): both blocks are checked first,
// then one mutate pass removes one matching row per delete tuple and adds
// the inserts, and the version takes one step. An unsorted relation appends
// the inserts behind its last row; a sorted one (SortBy, Restore with an
// order) keeps its sort order: the block is stably sorted by it and each
// tuple lands behind the existing rows of equal key. Deletes match by
// full-row value equality; if any tuple has no remaining match, or either
// block does not fit the schema, the relation is left untouched — rows,
// version and key indexes — and an error is returned, so a failed delta
// cannot leave base data and maintained views inconsistent. The key indexes
// are patched in place (see mutate), and the columns keep capacity
// headroom, so a stream of balanced deltas stops reallocating.
func (r *Relation) ApplyDelta(d Delta) error {
	if err := d.Validate(r); err != nil {
		return err
	}
	if d.Empty() {
		return nil
	}
	if err := r.mutate(d.Deletes, d.Inserts); err != nil {
		return err
	}
	r.distinctMu.Lock()
	r.distinct = nil
	r.distinctMu.Unlock()
	r.version.Add(1)
	return nil
}

// Append adds a block of tuples to the relation (ApplyDelta with inserts
// only).
func (r *Relation) Append(cols []Column) error { return r.ApplyDelta(Delta{Inserts: cols}) }

// DeleteRows removes one matching tuple per row of the block (ApplyDelta
// with deletes only). Victims are found through a key index probe plus row
// match: on a sorted relation a binary search over the sort order, which
// needs no storage; otherwise an index over every discrete attribute, built
// on the first delete. The surviving rows close the gaps in place, keeping
// their order (and so a sort order).
func (r *Relation) DeleteRows(cols []Column) error { return r.ApplyDelta(Delta{Deletes: cols}) }

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

// copyBlock deep-copies a column block. Every copied column is non-nil,
// even when empty, so its kind stays detectable.
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

// ApplyDelta applies d to its base relation as one mutation (see
// Relation.ApplyDelta).
func (db *Database) ApplyDelta(d Delta) error {
	rel := db.Relation(d.Relation)
	if rel == nil {
		return fmt.Errorf("data: delta against unknown relation %q", d.Relation)
	}
	return rel.ApplyDelta(d)
}
