package moo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

// searchRef returns v without its row directory: bind and Lookup on it are
// the binary searches every view used before directories.
//
// lmfao:pre-publish — a fresh copy no reader holds.
func searchRef(v *ViewData) *ViewData {
	w := *v
	w.dir = nil
	return &w
}

// wantsDir reports whether v's consumer-key box fits the directory budget:
// 4 bytes per slot plus one, at most SizeBytes.
func wantsDir(v *ViewData) bool {
	if v.box == nil {
		return false
	}
	slots := uint64(1)
	for _, p := range v.order[:v.nskey] {
		s := v.box[p]
		if s.hi < s.lo {
			return false
		}
		w := uint64(s.hi-s.lo) + 1
		if w == 0 || w > uint64(v.SizeBytes()) {
			return false
		}
		slots *= w
		if slots > uint64(v.SizeBytes()) {
			return false
		}
	}
	return 4*(slots+1) <= uint64(v.SizeBytes())
}

// checkDir requires v to carry a directory when its box fits the budget —
// and, for a view indexed afresh (not merged), only then — never larger
// than its payload, and, for every consumer key in the box widened by one
// each way, bind and Lookup to answer as the search reference does. (A
// merged view may keep a directory over a box narrower than its own, which
// a merge only widens.) It returns whether v has a directory.
func checkDir(t *testing.T, label string, v *ViewData, fresh bool) bool {
	t.Helper()
	if got, want := v.dir != nil, wantsDir(v); got != want && (want || fresh) {
		t.Fatalf("%s: directory %v, want %v (box %v, nskey %d, %d bytes)", label, got, want, v.box, v.nskey, v.SizeBytes())
	}
	if v.dir == nil {
		return false
	}
	if b := 4 * int64(len(v.dir.start)); b > v.SizeBytes() {
		t.Fatalf("%s: directory of %d bytes over a %d-byte view", label, b, v.SizeBytes())
	}
	ref := searchRef(v)
	skey := v.order[:v.nskey]
	key := make([]int64, len(skey))
	full := make([]int64, len(v.GroupBy))
	var walk func(j int)
	walk = func(j int) {
		if j < len(skey) {
			s := v.box[skey[j]]
			for k := s.lo - 1; k <= s.hi+1; k++ {
				key[j] = k
				walk(j + 1)
			}
			return
		}
		lo, hi, ok := v.bind(key)
		wlo, whi, wok := ref.bind(key)
		if ok != wok || ok && (lo != wlo || hi != whi) {
			t.Fatalf("%s: bind(%v) = [%d,%d) %v, search [%d,%d) %v", label, key, lo, hi, ok, wlo, whi, wok)
		}
		for j, p := range skey {
			full[p] = key[j]
		}
		// Every bound row by its full key, and one key beside each in
		// the last extra (or none: the consumer key is the whole key).
		for r := lo; r < hi; r++ {
			for _, p := range v.order[v.nskey:] {
				full[p] = v.Keys[p][r]
			}
			if got := v.Lookup(full...); got != int(r) {
				t.Fatalf("%s: Lookup(%v) = %d, want %d", label, full, got, r)
			}
			if n := len(v.order); n > v.nskey {
				full[v.order[n-1]]++
				if got, want := v.Lookup(full...), ref.Lookup(full...); got != want {
					t.Fatalf("%s: Lookup(%v) = %d, search %d", label, full, got, want)
				}
			}
		}
		if !ok && v.rows > 0 {
			for _, p := range v.order[v.nskey:] {
				full[p] = v.Keys[p][0]
			}
			if got := v.Lookup(full...); got != -1 {
				t.Fatalf("%s: Lookup(%v) = %d for an unbound consumer key", label, full, got)
			}
		}
	}
	walk(0)
	return true
}

// dirCase is one random view shape: GroupBy columns, a key box, a consumer.
type dirCase struct {
	groupBy []data.AttrID
	box     []keySpan
	target  []data.AttrID
	order   []int
	nskey   int
}

const dirStride = 2 // the last column is the tuple count

// newDirCase draws arity columns with small boxes (negative lows,
// single-value columns) and a random consumer.
func newDirCase(rng *rand.Rand, arity int) dirCase {
	c := dirCase{groupBy: make([]data.AttrID, arity), box: make([]keySpan, arity)}
	for j := range c.groupBy {
		c.groupBy[j] = data.AttrID(10 + j)
		lo := int64(rng.Intn(41) - 30)
		c.box[j] = keySpan{lo, lo + int64(rng.Intn(3)*rng.Intn(4))}
	}
	if rng.Intn(4) > 0 {
		c.target = []data.AttrID{999}
		for _, a := range c.groupBy {
			if rng.Intn(3) > 0 {
				c.target = append(c.target, a)
			}
		}
	}
	c.order, c.nskey = sortOrder(c.groupBy, c.target)
	return c
}

func (c dirCase) key(rng *rand.Rand) []int64 {
	k := make([]int64, len(c.box))
	for j, s := range c.box {
		k[j] = s.lo + rng.Int63n(s.hi-s.lo+1)
	}
	return k
}

// build finalizes keys (with their counts) through a builder addressed
// as mode says: "dense", "hashed" or "run".
func (c dirCase) build(mode string, keys [][]int64, counts []float64) *ViewData {
	var b *viewBuilder
	switch mode {
	case "dense":
		size, _ := boxSize(c.box, math.MaxInt)
		b = newViewBuilder(c.groupBy, dirStride, false, newDenseLayout(c.box, c.order, size))
	case "hashed":
		b = newViewBuilder(c.groupBy, dirStride, false, nil)
	case "run":
		// A run builder sees each key once, in the view's sort order, as a
		// scan in that order writes them: sum the writes per key first.
		type acc struct {
			key        []int64
			val, count float64
		}
		at := map[string]int{}
		var rows []acc
		for i, k := range keys {
			pk := data.PackKey(k...)
			j, ok := at[pk]
			if !ok {
				j = len(rows)
				at[pk] = j
				rows = append(rows, acc{key: k})
			}
			rows[j].val += float64(i%7) + 0.5
			rows[j].count += counts[i]
		}
		slices.SortFunc(rows, func(x, y acc) int {
			for _, p := range c.order {
				if x.key[p] != y.key[p] {
					return cmpNe(x.key[p], y.key[p])
				}
			}
			return 0
		})
		st := &runStore{keys: make([][]int64, len(c.groupBy)), vals: make([]float64, len(rows)*dirStride), sorted: true}
		for j := range st.keys {
			st.keys[j] = make([]int64, len(rows))
		}
		b = newViewBuilder(c.groupBy, dirStride, false, nil)
		b.useRun(runWindow{store: st, n: len(rows)})
		for _, a := range rows {
			r := b.row(a.key)
			b.add(r, 0, a.val)
			b.add(r, dirStride-1, a.count)
		}
		return b.finalize(c.target)
	}
	for i, k := range keys {
		r := b.row(k)
		b.add(r, 0, float64(i%7)+0.5)
		b.add(r, dirStride-1, counts[i])
	}
	return b.finalize(c.target)
}

// TestDirectoryMatchesSearch checks the row directory against the binary
// search it replaces. Random views of GroupBy arity 0–5 and random
// consumers cover consumer keys of arity 0–4 with and without extras, over
// small boxes with negative lows and single-value columns. The views come
// from every place a directory is built: finalize of dense, hashed and run
// builders, every mergeDelta path, CombineViews and DecodeViewData
// (assembleQuery's are checked by TestDirectoryAfterAssembleAndApply). A
// view must have a directory when its consumer-key box fits the budget, and
// one indexed afresh only then (checked at the budget and one slot over
// too); bind and Lookup must equal the search for every consumer key in
// the box widened by one. A merge that keeps the row set shares old's
// directory instead of building one; one that changes it derives old's
// shifted, unless an insert leaves old's box.
func TestDirectoryMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2029))
	type shape struct{ nskey, extras int }
	covered := map[shape]bool{}
	derived, reindexed := 0, 0
	for trial := 0; trial < 400; trial++ {
		c := newDirCase(rng, trial%6)
		n := 1 + rng.Intn(120)
		keys := make([][]int64, n)
		counts := make([]float64, n)
		for i := range keys {
			keys[i], counts[i] = c.key(rng), 1
		}
		var base *ViewData
		for _, mode := range []string{"dense", "hashed", "run"} {
			v := c.build(mode, keys, counts)
			label := fmt.Sprintf("trial %d %s", trial, mode)
			if checkDir(t, label, v, true) {
				covered[shape{c.nskey, len(c.order) - c.nskey}] = true
			}
			if base != nil && (v.dir == nil) != (base.dir == nil) {
				t.Fatalf("%s: directory %v, dense %v", label, v.dir != nil, base.dir != nil)
			}
			base = v
		}

		// mergeDelta, shared: every delta key hits an old row and keeps a
		// nonzero count, so the row set is old's.
		hits := make([][]int64, 1+rng.Intn(4))
		for i := range hits {
			hits[i] = base.Key(rng.Intn(base.rows))
		}
		ones := make([]float64, len(hits))
		for i := range ones {
			ones[i] = 1
		}
		delta := c.build("hashed", hits, ones)
		shared := mergeDelta(base, delta, dirStride-1, false)
		if shared.dir != base.dir {
			t.Fatalf("trial %d: shared merge built a directory of its own", trial)
		}
		checkDir(t, fmt.Sprintf("trial %d shared merge", trial), shared, false)

		// mergeDelta, unshared, twice over: inserts (some outside the box)
		// and drops. A merge derives its directory from old's (sharing its
		// layout) or indexes afresh when an insert leaves old's box.
		merged := base
		for round := 0; round < 2 && merged.rows > 0; round++ {
			var dk [][]int64
			var dc []float64
			for i := rng.Intn(6); i >= 0; i-- {
				k := c.key(rng)
				if len(k) > 0 && rng.Intn(4) == 0 {
					k[rng.Intn(len(k))] += int64(rng.Intn(5)) - 2
				}
				dk, dc = append(dk, k), append(dc, 1)
			}
			for i := rng.Intn(3); i >= 0; i-- {
				r := rng.Intn(merged.rows)
				dk, dc = append(dk, merged.Key(r)), append(dc, -merged.Val(r, dirStride-1))
			}
			old := merged
			merged = mergeDelta(old, c.build("hashed", dk, dc), dirStride-1, false)
			checkDir(t, fmt.Sprintf("trial %d merge %d", trial, round), merged, false)
			if old.dir != nil && merged.dir != nil && len(old.dir.cols) > 0 {
				if &merged.dir.cols[0] == &old.dir.cols[0] {
					derived++
				} else {
					reindexed++
				}
			}
		}

		// CombineViews of the base and the merged view, and a decoded copy
		// of the result.
		combined, err := CombineViews([]*ViewData{base, nil, merged})
		if err != nil {
			t.Fatal(err)
		}
		checkDir(t, fmt.Sprintf("trial %d combine", trial), combined, true)
		dec, _, err := DecodeViewData(combined.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkDir(t, fmt.Sprintf("trial %d decode", trial), dec, true)
	}
	if derived == 0 || reindexed == 0 {
		t.Errorf("merges derived %d directories and indexed %d afresh: want both paths taken", derived, reindexed)
	}
	for nskey := 0; nskey <= 4; nskey++ {
		for _, extras := range []int{0, 1} {
			found := false
			for s := range covered {
				if s.nskey == nskey && (s.extras > 0) == (extras > 0) {
					found = true
				}
			}
			if !found {
				t.Errorf("no view with a directory had a %d-column consumer key and extras %v", nskey, extras > 0)
			}
		}
	}

	// The budget edge: one key column and stride 1 make 16 bytes a row, so
	// n rows afford 4n − 1 slots. n keys spanning exactly that get a
	// directory; one slot more does not.
	for _, n := range []int{2, 5, 64} {
		for _, over := range []int64{0, 1} {
			hi := int64(4*n-2) + over
			b := newViewBuilder([]data.AttrID{1}, 1, false, nil)
			for i := 0; i < n; i++ {
				b.add(b.row([]int64{hi * int64(i) / int64(n-1)}), 0, 1)
			}
			v := b.finalize([]data.AttrID{1})
			if got, want := v.dir != nil, over == 0; v.rows != n || got != want {
				t.Fatalf("budget n=%d over=%d: %d rows, box %v: directory %v, want %v", n, over, v.rows, v.box, got, want)
			}
			checkDir(t, fmt.Sprintf("budget n=%d over=%d", n, over), v, true)
		}
	}
}

// TestDirectoryAfterAssembleAndApply runs a monoid query through Run and
// through Apply rounds (which re-fold only the groups affectedGroups marks):
// the assembled view shares its raw output view's keys and directory, and
// every materialized and assembled view binds and looks up as the search
// does.
func TestDirectoryAfterAssembleAndApply(t *testing.T) {
	db, keys, _ := chainDB(t, 80, 29, 5)
	q := query.NewQuery("ext", []data.AttrID{keys[1]}, query.CountAgg())
	q.MonoidAggs = []query.MonoidAgg{query.MinOf(keys[3]), query.MaxOf(keys[4])}
	eng, err := NewEngine(db, Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1, TrackCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	dirs := 0
	for round := 0; round < 6; round++ {
		raw := res.Materialized[res.Plan.OutputView[0]]
		av := res.Results[0]
		if av == raw || av.dir != raw.dir || &av.Keys[0][0] != &raw.Keys[0][0] {
			t.Fatalf("round %d: assembled view does not share its raw view's keys and directory", round)
		}
		for i, v := range append(slices.Clone(res.Materialized), av) {
			if v != nil && checkDir(t, fmt.Sprintf("round %d view %d", round, i), v, false) {
				dirs++
			}
		}
		rel := db.Relation("S2")
		d := data.Delta{Relation: "S2"}
		if round%2 == 0 {
			d.Inserts = []data.Column{
				data.NewIntColumn([]int64{int64(rng.Intn(5)), int64(rng.Intn(7))}),
				data.NewIntColumn([]int64{int64(rng.Intn(7)), int64(rng.Intn(5))}),
				data.NewFloatColumn([]float64{1.5, 2.5}),
			}
		} else {
			r := rng.Intn(rel.Len())
			for _, a := range rel.Attrs {
				if col := rel.MustCol(a); col.Ints != nil {
					d.Deletes = append(d.Deletes, data.NewIntColumn([]int64{col.Ints[r]}))
				} else {
					d.Deletes = append(d.Deletes, data.NewFloatColumn([]float64{col.Floats[r]}))
				}
			}
		}
		if err := db.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if res, _, err = eng.Apply(res, d); err != nil {
			t.Fatal(err)
		}
		full, err := eng.Run([]*query.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Results[0], full.Results[0]
		if got.rows != want.rows {
			t.Fatalf("round %d: %d rows maintained, %d recomputed", round, got.rows, want.rows)
		}
		for r := 0; r < got.rows; r++ {
			if !slices.Equal(got.Key(r), want.Key(r)) || !slices.Equal(got.Vals[r*got.Stride:(r+1)*got.Stride], want.Vals[r*want.Stride:(r+1)*want.Stride]) {
				t.Fatalf("round %d row %d: maintained %v %v, recomputed %v %v", round, r,
					got.Key(r), got.Vals[r*got.Stride:(r+1)*got.Stride], want.Key(r), want.Vals[r*want.Stride:(r+1)*want.Stride])
			}
		}
	}
	if dirs == 0 {
		t.Fatal("no view got a directory")
	}
}
