package data

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory columnar relation. Columns are parallel to Attrs.
// A relation may be sorted by a prefix order of discrete attributes
// (SortOrder); the MOO executor relies on sortedness for trie-style scans.
type Relation struct {
	Name  string
	Attrs []AttrID
	Cols  []Column

	n int

	// sortOrder is the attribute order the rows are currently sorted by
	// (lexicographically); nil if unsorted.
	sortOrder []AttrID

	// distinct caches per-attribute distinct-value counts; distinctMu
	// guards it because group plans compile concurrently.
	distinctMu sync.Mutex
	distinct   map[AttrID]int

	// version counts applied deltas (see Version). It is atomic because
	// the snapshot publication protocol (lmfao.Session) reads versions
	// concurrently with the single writer's mutations. Column data itself
	// stays single-writer: mutating rows must not race with row reads.
	version atomic.Int64

	// keyIdx holds the relation's key indexes, one per attribute list (see
	// KeyIndex) — a handful, found by a linear scan. Mutations patch them in
	// place; keyIdxMu guards the list because maintenance passes may overlap
	// with concurrent plan compilation reads.
	keyIdxMu sync.Mutex
	keyIdx   []*KeyIndex
	// remap is the writer's scratch for bringing postings forward (see
	// remapTable), kept so that a patch allocates nothing proportional to
	// the relation.
	remap []int32
}

// NewRelation constructs a relation over the given attributes and columns.
// All columns must have equal length and match their attribute kinds; this is
// checked when the relation is added to a Database.
func NewRelation(name string, attrs []AttrID, cols []Column) *Relation {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	return &Relation{Name: name, Attrs: attrs, Cols: cols, n: n}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// HasAttr reports whether the relation's schema contains id.
func (r *Relation) HasAttr(id AttrID) bool { return r.colIndex(id) >= 0 }

// Col returns the column for attribute id; ok is false if absent.
func (r *Relation) Col(id AttrID) (Column, bool) {
	i := r.colIndex(id)
	if i < 0 {
		return Column{}, false
	}
	return r.Cols[i], true
}

// MustCol returns the column for attribute id, panicking if absent. Intended
// for engine-internal use after schema validation.
func (r *Relation) MustCol(id AttrID) Column {
	c, ok := r.Col(id)
	if !ok {
		panic(fmt.Sprintf("data: relation %q has no attribute %d", r.Name, id))
	}
	return c
}

func (r *Relation) colIndex(id AttrID) int {
	for i, a := range r.Attrs {
		if a == id {
			return i
		}
	}
	return -1
}

func (r *Relation) validate(db *Database) error {
	if len(r.Attrs) != len(r.Cols) {
		return fmt.Errorf("%d attributes but %d columns", len(r.Attrs), len(r.Cols))
	}
	seen := make(map[AttrID]bool, len(r.Attrs))
	for i, a := range r.Attrs {
		if int(a) < 0 || int(a) >= len(db.attrs) {
			return fmt.Errorf("unknown attribute id %d", a)
		}
		if seen[a] {
			return fmt.Errorf("duplicate attribute %q", db.attrs[a].Name)
		}
		seen[a] = true
		if err := r.Cols[i].check(r.n, db.attrs[a].Kind); err != nil {
			return fmt.Errorf("column %q: %w", db.attrs[a].Name, err)
		}
	}
	return nil
}

// SortOrder returns the attribute order the relation is sorted by, or nil.
func (r *Relation) SortOrder() []AttrID { return r.sortOrder }

// SortedBy reports whether the relation is sorted lexicographically by a
// sequence of attributes beginning with order (i.e. order is a prefix of the
// current sort order).
func (r *Relation) SortedBy(order []AttrID) bool {
	if len(order) > len(r.sortOrder) {
		return false
	}
	for i, a := range order {
		if r.sortOrder[i] != a {
			return false
		}
	}
	return true
}

// SortBy sorts the relation in place lexicographically by the given discrete
// attributes. It is a no-op if the relation is already sorted by a
// compatible prefix. Numeric attributes cannot be sort keys. A relation that
// is already sorted breaks ties by its current order (see refine), and its
// new SortOrder is order followed by those tie-breaking attributes.
func (r *Relation) SortBy(order []AttrID) error {
	if r.SortedBy(order) {
		return nil
	}
	order = r.refine(order)
	perm, err := r.SortPerm(order)
	if err != nil {
		return err
	}
	for i := range r.Cols {
		r.Cols[i] = r.Cols[i].gather(perm)
	}
	r.sortOrder = order
	r.dropIndexes() // every row moved
	return nil
}

// refine returns the key a sort of r by order uses: order followed by the
// attributes of r's sort order that order does not name (a fresh slice).
// Rows equal on it are equal on r's sort order too, so the stable sort keeps
// them in the relative order r holds them in — arrival order (see the
// tie-order invariant in patch.go) — and a structure sorted this way and
// then patched by mutate, which merges behind equal keys of the same longer
// order, equals one sorted afresh after the same deltas. An unsorted r
// adds nothing: its rows already stand in arrival order.
func (r *Relation) refine(order []AttrID) []AttrID {
	out := append([]AttrID(nil), order...)
	for _, a := range r.sortOrder {
		if !slices.Contains(order, a) {
			out = append(out, a)
		}
	}
	return out
}

// sortKeys resolves the discrete key columns for a sort order in cols, a
// block in the relation's schema (its own rows, or rows to restore).
func (r *Relation) sortKeys(cols []Column, order []AttrID) ([][]int64, error) {
	keys := make([][]int64, len(order))
	for i, a := range order {
		p := r.colIndex(a)
		if p < 0 {
			return nil, fmt.Errorf("data: sort of %q: missing attribute %d", r.Name, a)
		}
		if !cols[p].IsInt() {
			return nil, fmt.Errorf("data: sort of %q: attribute %d is numeric", r.Name, a)
		}
		keys[i] = cols[p].Ints
	}
	return keys, nil
}

// SortPerm returns the stable permutation SortBy would apply: perm[i] is the
// receiver row that lands at position i when the relation is sorted
// lexicographically by order (refined by its current sort order, as SortBy
// does). Rows with equal keys keep their relative order (ascending row
// ids), so the permutation is unique. The receiver is left untouched.
func (r *Relation) SortPerm(order []AttrID) ([]int32, error) {
	keys, err := r.sortKeys(r.Cols, r.refine(order))
	if err != nil {
		return nil, err
	}
	perm := identityIDs(r.n)
	SortIDs(perm, keys)
	return perm, nil
}

// SortIDsBy sorts row ids in place, lexicographically by the given discrete
// attributes, ids of equal keys ascending (see SortIDs). Starting from
// ascending ids this applies exactly the permutation SortBy would,
// restricted to the id subset — a scan visiting rows through the sorted ids
// sees them in the sequence a SortedCopy of the gathered subset would
// produce, which keeps float accumulation orders (and thus bit-exact
// results) identical between the two scan strategies.
func (r *Relation) SortIDsBy(order []AttrID, ids []int32) error {
	keys, err := r.sortKeys(r.Cols, r.refine(order))
	if err != nil {
		return err
	}
	SortIDs(ids, keys)
	return nil
}

// SortedCopy returns a copy of the relation sorted by order, sharing no row
// storage with the receiver. The receiver is left untouched. The copy starts
// out in the receiver's sort order, so a sorted receiver's order breaks the
// copy's ties (see SortBy). This full sort is the base case of the copy's
// life: applying each later delta of the receiver to the copy as well
// (ApplyDelta) keeps it equal to a fresh SortedCopy.
func (r *Relation) SortedCopy(order []AttrID) (*Relation, error) {
	cp := &Relation{Name: r.Name, Attrs: append([]AttrID(nil), r.Attrs...), Cols: copyBlock(r.Cols), n: r.n,
		sortOrder: append([]AttrID(nil), r.sortOrder...)}
	if err := cp.SortBy(order); err != nil {
		return nil, err
	}
	return cp, nil
}

// Restore replaces the relation's contents, mutation counter and sort
// order with a recovered state, as captured by a WAL checkpoint: cols
// becomes the row storage (ownership transfers to the relation), version
// the mutation counter and order the sort order (nil for none). A non-empty
// order is checked in one linear pass over the key columns; rows that
// violate it, or an order naming a missing or numeric attribute, fail the
// call with the relation untouched. Distinct counts and key indexes are
// dropped. Single-writer: must not race with row reads.
func (r *Relation) Restore(cols []Column, version int64, order []AttrID) error {
	n, err := r.checkBlock(cols)
	if err != nil {
		return err
	}
	var sorted []AttrID
	if len(order) > 0 {
		keys, err := r.sortKeys(cols, order)
		if err != nil {
			return err
		}
		for i := 1; i < n; i++ {
			for _, k := range keys {
				if k[i-1] != k[i] {
					if k[i-1] > k[i] {
						return fmt.Errorf("data: restore of %q: row %d is not sorted by %v", r.Name, i, order)
					}
					break
				}
			}
		}
		sorted = append(sorted, order...)
	}
	r.Cols = cols
	r.n = n
	r.sortOrder = sorted
	r.distinctMu.Lock()
	r.distinct = nil
	r.distinctMu.Unlock()
	r.dropIndexes()
	r.version.Store(version)
	return nil
}

// DistinctCount returns the number of distinct values of a discrete
// attribute, caching the result. It is the cardinality statistic behind the
// planner's cost-based join-attribute order (core.Plan.AttrOrder), whose
// ties fall back to the paper's "increasing order in the domain sizes"
// (§3.5).
func (r *Relation) DistinctCount(id AttrID) int {
	r.distinctMu.Lock()
	if r.distinct == nil {
		r.distinct = make(map[AttrID]int)
	}
	if n, ok := r.distinct[id]; ok {
		r.distinctMu.Unlock()
		return n
	}
	r.distinctMu.Unlock()

	c, ok := r.Col(id)
	if !ok || !c.IsInt() {
		return 0
	}
	seen := make(map[int64]struct{}, 1024)
	for _, v := range c.Ints {
		seen[v] = struct{}{}
	}
	r.distinctMu.Lock()
	r.distinct[id] = len(seen)
	r.distinctMu.Unlock()
	return len(seen)
}

// RowFloats copies row i into dst as float64s in schema order.
func (r *Relation) RowFloats(i int, dst []float64) {
	for j, c := range r.Cols {
		dst[j] = c.Float(i)
	}
}
