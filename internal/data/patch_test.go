package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// patchWorld is a base relation plus the followers a maintained session
// keeps over it: sorted copies per scan order, and key indexes on the base
// and on the copies. Beside it, one twin per scan order is sorted in place
// and takes every mutation the base takes, as a session's base does, and
// keeps sorted copies of its own in the other orders. Every follower takes
// the same delta as the relation it follows. check compares each follower,
// and every twin, element for element, with a structure freshly built from
// the one it follows, and with a fresh SortedCopy of the arrival-order base.
type patchWorld struct {
	t      *testing.T
	base   *Relation
	orders [][]AttrID
	keys   [][]AttrID // index attribute lists (discrete attrs only)
	copies []*Relation
	sorted []*Relation // sorted[i] is sorted in place by orders[i]
	// twinCopies[i][j] is sorted[i]'s copy in orders[j] (nil for j = i).
	twinCopies [][]*Relation
}

func newPatchWorld(t *testing.T, nInt, nFloat int) *patchWorld {
	t.Helper()
	w := &patchWorld{t: t}
	var attrs []AttrID
	var cols []Column
	for i := 0; i < nInt; i++ {
		attrs = append(attrs, AttrID(len(attrs)))
		cols = append(cols, NewIntColumn(nil))
	}
	for i := 0; i < nFloat; i++ {
		attrs = append(attrs, AttrID(len(attrs)))
		cols = append(cols, NewFloatColumn(nil))
	}
	w.base = NewRelation("r", attrs, cols)
	ints := attrs[:nInt]
	switch nInt {
	case 0:
	case 1:
		w.orders = [][]AttrID{{ints[0]}}
		w.keys = [][]AttrID{{ints[0]}}
	case 2:
		w.orders = [][]AttrID{{ints[0]}, {ints[1], ints[0]}}
		w.keys = [][]AttrID{{ints[0]}, {ints[1]}, {ints[1], ints[0]}}
	default:
		w.orders = [][]AttrID{{ints[0], ints[1]}, {ints[2], ints[0], ints[1]}, {ints[1]}}
		w.keys = [][]AttrID{{ints[0]}, {ints[1]}, {ints[2], ints[1]}, {ints[0], ints[1], ints[2]}}
	}
	for _, order := range w.orders {
		twin := w.base.clone()
		if err := twin.SortBy(order); err != nil {
			t.Fatal(err)
		}
		w.sorted = append(w.sorted, twin)
	}
	w.rebuild()
	return w
}

// rebuild drops every follower and builds it afresh from the relation it
// follows (SortedCopy): the base case a follower starts from, here taken
// from a base that earlier deltas already mutated.
func (w *patchWorld) rebuild() {
	sortedCopy := func(rel *Relation, order []AttrID) *Relation {
		cp, err := rel.SortedCopy(order)
		if err != nil {
			w.t.Fatal(err)
		}
		return cp
	}
	w.copies = make([]*Relation, len(w.orders))
	w.twinCopies = make([][]*Relation, len(w.orders))
	for i, order := range w.orders {
		w.copies[i] = sortedCopy(w.base, order)
		w.twinCopies[i] = make([]*Relation, len(w.orders))
		for j, other := range w.orders {
			if j != i {
				w.twinCopies[i][j] = sortedCopy(w.sorted[i], other)
			}
		}
	}
}

// apply runs one delta on the base, on every sorted twin and on every
// follower; they must agree on whether it succeeds.
func (w *patchWorld) apply(d Delta) error {
	err := w.base.ApplyDelta(d)
	same := func(rel *Relation, what string) {
		if ferr := rel.ApplyDelta(d); (ferr == nil) != (err == nil) {
			w.t.Fatalf("%s sorted by %v returned %v, base %v", what, rel.SortOrder(), ferr, err)
		}
	}
	for i, twin := range w.sorted {
		same(twin, "sorted twin")
		same(w.copies[i], "copy")
		for _, cp := range w.twinCopies[i] {
			if cp != nil {
				same(cp, "twin copy")
			}
		}
	}
	return err
}

func (w *patchWorld) append(blk []Column) error { return w.apply(Delta{Inserts: blk}) }
func (w *patchWorld) delete(blk []Column) error { return w.apply(Delta{Deletes: blk}) }

// block builds a tuple block in the base's schema from small value codes, so
// that duplicates (of keys and of whole rows) are common.
func (w *patchWorld) block(codes []byte) []Column {
	nc := len(w.base.Cols)
	n := len(codes)
	cols := make([]Column, nc)
	for c := range cols {
		if w.base.Cols[c].IsInt() {
			v := make([]int64, n)
			for i, code := range codes {
				v[i] = int64((int(code) >> (2 * (c % 3))) % 4)
			}
			cols[c] = NewIntColumn(v)
		} else {
			v := make([]float64, n)
			for i, code := range codes {
				v[i] = float64(int(code)>>6) / 2
			}
			cols[c] = NewFloatColumn(v)
		}
	}
	return cols
}

// liveRows returns the block of the base rows at the given positions (mod
// the row count); nil when the base is empty.
func (w *patchWorld) liveRows(picks []byte) []Column {
	if w.base.Len() == 0 {
		return nil
	}
	idx := make([]int32, len(picks))
	for i, p := range picks {
		idx[i] = int32(int(p) % w.base.Len())
	}
	// Distinct positions: a block deleting the same row twice needs two
	// copies of it to exist.
	slices.Sort(idx)
	idx = slices.Compact(idx)
	return w.base.GatherRows(idx).Cols
}

func blocksEqual(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c].IsInt() != b[c].IsInt() || a[c].Len() != b[c].Len() {
			return false
		}
		if a[c].IsInt() {
			if !slices.Equal(a[c].Ints, b[c].Ints) {
				return false
			}
		} else {
			for i := range a[c].Floats {
				if math.Float64bits(a[c].Floats[i]) != math.Float64bits(b[c].Floats[i]) {
					return false
				}
			}
		}
	}
	return true
}

// freshIndex builds the index a relation with rel's rows and sort order
// would build from nothing.
func freshIndex(t *testing.T, rel *Relation, attrs []AttrID) *KeyIndex {
	t.Helper()
	clone := rel.clone()
	clone.sortOrder = rel.sortOrder
	ix, err := clone.KeyIndex(attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (w *patchWorld) checkIndexes(rel *Relation, what string) {
	for _, attrs := range w.keys {
		got, err := rel.KeyIndex(attrs)
		if err != nil {
			w.t.Fatal(err)
		}
		want := freshIndex(w.t, rel, attrs)
		if got.positional != want.positional {
			w.t.Fatalf("%s index %v: positional %v, fresh build %v", what, attrs, got.positional, want.positional)
		}
		if !slices.Equal(got.perm, want.perm) {
			w.t.Fatalf("%s index %v: patched postings %v, fresh build %v", what, attrs, got.perm, want.perm)
		}
		if got.NumKeys() != want.NumKeys() {
			w.t.Fatalf("%s index %v: NumKeys %d, fresh build %d", what, attrs, got.NumKeys(), want.NumKeys())
		}
	}
}

func (w *patchWorld) check() {
	for _, c := range w.base.Cols {
		if c.Len() != w.base.Len() {
			w.t.Fatalf("ragged base: column of %d rows, relation of %d", c.Len(), w.base.Len())
		}
	}
	w.checkIndexes(w.base, "base")
	for i, order := range w.orders {
		cp := w.copies[i]
		fresh, err := w.base.SortedCopy(order)
		if err != nil {
			w.t.Fatal(err)
		}
		if cp.Len() != fresh.Len() || !blocksEqual(cp.Cols, fresh.Cols) {
			w.t.Fatalf("order %v: patched copy differs from a fresh SortedCopy\npatched %v\nfresh   %v", order, cp.Cols, fresh.Cols)
		}
		w.checkIndexes(cp, "copy")
		twin := w.sorted[i]
		if !slices.Equal(twin.SortOrder(), order) || twin.Version() != w.base.Version() {
			w.t.Fatalf("order %v: sorted twin at order %v, version %d; base version %d", order, twin.SortOrder(), twin.Version(), w.base.Version())
		}
		if twin.Len() != fresh.Len() || !blocksEqual(twin.Cols, fresh.Cols) {
			w.t.Fatalf("order %v: sorted twin differs from a fresh SortedCopy\ntwin  %v\nfresh %v", order, twin.Cols, fresh.Cols)
		}
		w.checkIndexes(twin, "sorted twin")
		for j, other := range w.orders {
			if j != i {
				w.checkTwinCopy(i, j, other)
			}
		}
	}
}

// checkTwinCopy requires sorted twin i's copy in order to equal a fresh
// SortedCopy of the twin — the base case a recovered session takes — and a
// fresh SortedCopy of the arrival-order base by the copy's SortOrder, which
// is order refined by the twin's.
func (w *patchWorld) checkTwinCopy(i, j int, order []AttrID) {
	twin, cp := w.sorted[i], w.twinCopies[i][j]
	fresh, err := twin.SortedCopy(order)
	if err != nil {
		w.t.Fatal(err)
	}
	if !cp.SortedBy(order) || !slices.Equal(cp.SortOrder(), fresh.SortOrder()) {
		w.t.Fatalf("twin %v, order %v: copy sorted by %v, fresh copy by %v", w.orders[i], order, cp.SortOrder(), fresh.SortOrder())
	}
	if cp.Len() != fresh.Len() || !blocksEqual(cp.Cols, fresh.Cols) {
		w.t.Fatalf("twin %v, order %v: patched copy differs from a fresh SortedCopy of the twin\npatched %v\nfresh   %v", w.orders[i], order, cp.Cols, fresh.Cols)
	}
	arrival, err := w.base.SortedCopy(cp.SortOrder())
	if err != nil {
		w.t.Fatal(err)
	}
	if !blocksEqual(cp.Cols, arrival.Cols) {
		w.t.Fatalf("twin %v, order %v: copy differs from the arrival-order base sorted by %v\ncopy %v\nbase %v", w.orders[i], order, cp.SortOrder(), cp.Cols, arrival.Cols)
	}
	w.checkIndexes(cp, "twin copy")
}

// step applies one operation of a delta tape and reports how many tape bytes
// it consumed.
func (w *patchWorld) step(tape []byte) int {
	t := w.t
	op, n := tape[0]%7, 1+int(tape[0]>>5)
	args := tape[1:]
	if n > len(args) {
		n = len(args)
	}
	args = args[:n]
	if n == 0 {
		return 1
	}
	switch op {
	case 0: // insert
		if err := w.append(w.block(args)); err != nil {
			t.Fatal(err)
		}
	case 1: // delete live rows and insert new ones in one delta
		half := (n + 1) / 2
		d := Delta{Deletes: w.liveRows(args[:half]), Inserts: w.block(args[half:])}
		if err := w.apply(d); err != nil {
			t.Fatal(err)
		}
	case 2: // delete live rows (one of k duplicates, whenever duplicates exist)
		if blk := w.liveRows(args); blk != nil {
			if err := w.delete(blk); err != nil {
				t.Fatal(err)
			}
		}
	case 3: // delete everything
		if w.base.Len() > 0 {
			if err := w.delete(copyBlock(w.base.Cols)); err != nil {
				t.Fatal(err)
			}
			if w.base.Len() != 0 {
				t.Fatalf("delete of every row left %d", w.base.Len())
			}
		}
	case 4: // insert then delete the same rows within one round
		blk := w.block(args)
		if err := w.append(blk); err != nil {
			t.Fatal(err)
		}
		if err := w.delete(blk); err != nil {
			t.Fatal(err)
		}
	case 5: // a delete with one unmatched tuple touches nothing
		blk := w.block(args)
		for c := range blk {
			if blk[c].IsInt() {
				blk[c].Ints[0] = 99
			} else {
				blk[c].Floats[0] = 99
			}
		}
		before, version := copyBlock(w.base.Cols), w.base.Version()
		if err := w.delete(blk); err == nil {
			t.Fatal("delete of an absent tuple succeeded")
		}
		if !blocksEqual(before, w.base.Cols) || w.base.Version() != version {
			t.Fatal("failed delete touched the relation")
		}
	case 6: // several mutations between two looks at the followers
		half := (n + 1) / 2
		if blk := w.liveRows(args[:half]); blk != nil {
			if err := w.delete(blk); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.append(w.block(args[half:])); err != nil {
			t.Fatal(err)
		}
		if err := w.append(w.block(args[:half])); err != nil {
			t.Fatal(err)
		}
		return 1 + n // checked by the caller, after all three
	}
	return 1 + n
}

// FuzzPhysicalPatch drives random schemas through random delta tapes —
// duplicate rows, deletes of one of k duplicates, deletes that empty the
// relation, mixed deltas, insert-then-delete of the same row in one round,
// failed deletes, and (per a schema bit) followers dropped and rebuilt
// mid-tape from the mutated relation — and after every step requires each
// patched sorted copy, each relation sorted in place and mutated like the
// base, and each patched key index to equal, element for element, a fresh
// SortedCopy and KeyIndex of the mutated relation.
func FuzzPhysicalPatch(f *testing.F) {
	f.Add(byte(0x00), []byte{0x60, 1, 2, 3, 0x42, 0, 1, 0x43, 0x64, 7, 7, 9})
	f.Add(byte(0x16), []byte{0xe0, 1, 1, 1, 1, 5, 5, 5, 0x22, 0, 0x22, 0, 0x22, 0})
	f.Add(byte(0x2b), []byte{0x86, 9, 8, 7, 6, 5, 0x03, 0x60, 1, 2, 3, 0x25, 4})
	f.Add(byte(0x37), []byte{0xc0, 3, 3, 3, 3, 3, 3, 0xc6, 0, 1, 2, 3, 4, 5, 0xa4, 200, 100, 50, 25, 12})
	f.Add(byte(0xf3), []byte{0x20, 255, 0x46, 0, 200, 0x03, 0x20, 1})
	f.Fuzz(func(t *testing.T, schema byte, tape []byte) {
		if len(tape) > 256 {
			tape = tape[:256] // every step re-sorts for the comparison: keep execs cheap
		}
		runPatchTape(t, int(schema), tape)
	})
}

// runPatchTape runs a delta tape over the schema the schema code picks:
// bits 0-1 the discrete columns, bit 2 the numeric ones, bit 4 whether the
// followers are rebuilt every 1 + bits 5-7 steps.
func runPatchTape(t *testing.T, schema int, tape []byte) {
	nInt, nFloat := schema&3, schema>>2&1
	if nInt == 0 {
		nFloat = 1 + schema>>2&1
	}
	rebuildEvery := 0
	if schema&0x10 != 0 {
		rebuildEvery = 1 + schema>>5&7
	}
	w := newPatchWorld(t, nInt, nFloat)
	w.check()
	for step := 1; len(tape) > 0; step++ {
		tape = tape[w.step(tape):]
		w.check()
		if rebuildEvery > 0 && step%rebuildEvery == 0 {
			w.rebuild()
		}
	}
}

// TestPhysicalPatchRandom is the fuzz property under go test: long random
// tapes over every schema shape, with and without followers rebuilt
// mid-tape.
func TestPhysicalPatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for schema := 0; schema < 256; schema += 5 {
		tape := make([]byte, 120)
		rng.Read(tape)
		runPatchTape(t, schema, tape)
	}
}

// TestFailedDeleteTouchesNothing is the mutation contract's atomic half: a
// delete block with one unmatched tuple — alone, or beside valid inserts in
// one delta — and a valid delete beside an insert block of the wrong shape
// leave rows, version, sorted copies and indexes exactly as they were.
func TestFailedDeleteTouchesNothing(t *testing.T) {
	cases := []struct {
		name string
		del  [][]int64 // per int column a, b
		x    []float64
	}{
		{"absent key", [][]int64{{1, 9}, {10, 90}}, []float64{0.5, 9}},
		{"key present, payload differs", [][]int64{{1, 2}, {10, 20}}, []float64{0.5, 7.25}},
		{"one duplicate too many", [][]int64{{3, 3}, {30, 30}}, []float64{3.5, 3.5}},
		{"only the last tuple misses", [][]int64{{1, 2, 2, 4}, {10, 20, 21, 40}}, []float64{0.5, 1.5, 4.5, 4.5}},
	}
	ins := []Column{NewIntColumn([]int64{6}), NewIntColumn([]int64{60}), NewFloatColumn([]float64{6})}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := keyIndexFixture(t)
			order := []AttrID{rel.Attrs[1], rel.Attrs[0]}
			ix, err := rel.KeyIndex([]AttrID{rel.Attrs[1]})
			if err != nil {
				t.Fatal(err)
			}
			// A mutated prefix the failed delete must preserve.
			if err := rel.Append([]Column{NewIntColumn([]int64{4}), NewIntColumn([]int64{40}), NewFloatColumn([]float64{4})}); err != nil {
				t.Fatal(err)
			}
			cp, err := rel.SortedCopy(order)
			if err != nil {
				t.Fatal(err)
			}
			rows, perm, cpRows := copyBlock(rel.Cols), slices.Clone(ix.perm), copyBlock(cp.Cols)
			version, cpVersion := rel.Version(), cp.Version()

			del := []Column{NewIntColumn(tc.del[0]), NewIntColumn(tc.del[1]), NewFloatColumn(tc.x)}
			short := Delta{Deletes: rel.GatherRows([]int32{0}).Cols, Inserts: ins[:2]}
			for _, d := range []Delta{{Deletes: del}, {Deletes: del, Inserts: ins}, short} {
				for _, r := range []*Relation{rel, cp} {
					if err := r.ApplyDelta(d); err == nil {
						t.Fatalf("delta %v succeeded", d)
					}
				}
				if !blocksEqual(rows, rel.Cols) || rel.Len() != rows[0].Len() {
					t.Fatal("rows changed")
				}
				if rel.Version() != version {
					t.Fatal("version changed")
				}
				if !slices.Equal(perm, ix.perm) {
					t.Fatal("key index changed")
				}
				if !blocksEqual(cpRows, cp.Cols) || cp.Version() != cpVersion {
					t.Fatal("sorted copy changed")
				}
			}
		})
	}
}

// TestRelayoutDropsPatchedState: Restore and SortBy re-lay the rows, so the
// patched indexes go; PartitionBy's shards are new relations that start with
// none, whatever the source carried.
func TestRelayoutDropsPatchedState(t *testing.T) {
	rel := keyIndexFixture(t)
	a := rel.Attrs[0]
	ix, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.DeleteRows(rel.GatherRows([]int32{0}).Cols); err != nil {
		t.Fatal(err)
	}
	shards, err := rel.PartitionBy([]AttrID{a}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if len(s.keyIdx) != 0 || s.Version() != 0 {
			t.Fatal("a shard inherited patched state")
		}
	}
	if err := rel.Restore([]Column{
		NewIntColumn([]int64{5, 4}), NewIntColumn([]int64{50, 40}), NewFloatColumn([]float64{5, 4}),
	}, 7, nil); err != nil {
		t.Fatal(err)
	}
	if len(rel.keyIdx) != 0 {
		t.Fatal("Restore kept a key index")
	}
	ix2, err := rel.KeyIndex([]AttrID{a})
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix || !slices.Equal(rowsOf(ix2, 4), []int32{1}) {
		t.Fatal("index after Restore does not describe the restored rows")
	}
	if err := rel.SortBy([]AttrID{rel.Attrs[1]}); err != nil {
		t.Fatal(err)
	}
	if len(rel.keyIdx) != 0 {
		t.Fatal("SortBy kept a key index")
	}
}

// benchFact builds a fact-shaped relation: three discrete columns of
// distinct domain sizes and one numeric, n rows.
func benchFact(n int) *Relation {
	rng := rand.New(rand.NewSource(1))
	a, b, c, x := make([]int64, n), make([]int64, n), make([]int64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], b[i], c[i], x[i] = int64(rng.Intn(1300)), int64(rng.Intn(120)), int64(rng.Intn(5000)), float64(rng.Intn(100))
	}
	return NewRelation("fact", []AttrID{0, 1, 2, 3},
		[]Column{NewIntColumn(a), NewIntColumn(b), NewIntColumn(c), NewFloatColumn(x)})
}

const (
	benchRows  = 200_000
	benchDelta = 512
)

// benchDeltaOf returns a delta deleting benchDelta live rows of rel and
// inserting as many new ones.
func benchDeltaOf(rng *rand.Rand, rel *Relation) Delta {
	picks := rng.Perm(rel.Len())[:benchDelta]
	idx := make([]int32, benchDelta)
	for i, p := range picks {
		idx[i] = int32(p)
	}
	slices.Sort(idx)
	dels := rel.GatherRows(idx).Cols
	ins := copyBlock(dels)
	for i := range ins[2].Ints {
		ins[2].Ints[i] = int64(rng.Intn(5000))
	}
	return Delta{Relation: rel.Name, Inserts: ins, Deletes: dels}
}

// The three benchmarks below are CI's allocation smoke: B/op must stay
// proportional to the delta (tens of kB), never to the relation (MBs).

func BenchmarkApplyDelta(b *testing.B) {
	db := NewDatabase()
	for _, n := range []string{"a", "b", "c"} {
		db.Attr(n, Key)
	}
	db.Attr("x", Numeric)
	rel := benchFact(benchRows)
	if err := db.AddRelation(rel); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := db.ApplyDelta(benchDeltaOf(rng, rel)); err != nil { // builds the locator, grows the columns
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDeltaOf(rng, rel)
		b.StartTimer()
		if err := db.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDeltaSorted is BenchmarkApplyDelta on a base sorted in
// place, as a session keeps it: deletes go through the positional locator
// and inserts merge into the order.
func BenchmarkApplyDeltaSorted(b *testing.B) {
	db := NewDatabase()
	for _, n := range []string{"a", "b", "c"} {
		db.Attr(n, Key)
	}
	db.Attr("x", Numeric)
	rel := benchFact(benchRows)
	if err := db.AddRelation(rel); err != nil {
		b.Fatal(err)
	}
	if err := rel.SortBy([]AttrID{0, 1, 2}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := db.ApplyDelta(benchDeltaOf(rng, rel)); err != nil { // grows the columns
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDeltaOf(rng, rel)
		b.StartTimer()
		if err := db.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
	if !rel.SortedBy([]AttrID{0, 1, 2}) {
		b.Fatal("the base lost its order")
	}
}

// BenchmarkSortedCopyPatch times bringing a sorted copy forward by applying
// its base's delta to it.
func BenchmarkSortedCopyPatch(b *testing.B) {
	rel := benchFact(benchRows)
	rng := rand.New(rand.NewSource(3))
	cp, err := rel.SortedCopy([]AttrID{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDeltaOf(rng, rel)
		if err := rel.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cp.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyIndexPatch is BenchmarkSortedCopyPatch with a key index on
// the copy that the delta patches too.
func BenchmarkKeyIndexPatch(b *testing.B) {
	rel := benchFact(benchRows)
	rng := rand.New(rand.NewSource(4))
	cp, err := rel.SortedCopy([]AttrID{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.KeyIndex([]AttrID{2}); err != nil { // not a prefix of the order: real postings
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDeltaOf(rng, rel)
		if err := rel.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cp.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		if _, err := cp.KeyIndex([]AttrID{2}); err != nil {
			b.Fatal(err)
		}
	}
}
