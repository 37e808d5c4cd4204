package moo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

// keyPool mixes a small colliding domain with signed extremes and values
// that differ only in their high bits, so tuples repeat, share prefixes and
// stress the hash's high-bit indexing.
var keyPool = []int64{0, 1, -1, 2, 3, -7, 1 << 32, 1<<32 + 1, -1 << 40, 1 << 62,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}

func randKey(rng *rand.Rand, arity int) []int64 {
	k := make([]int64, arity)
	for c := range k {
		k[c] = keyPool[rng.Intn(len(keyPool))]
	}
	return k
}

// TestViewBuilderBindLookupProperty checks the hash-table builder, bind and
// Lookup against a map[string] reference on random key
// tuples of arity 0–4: identical row ids in first-seen order, bit-identical
// sums, strictly sorted finalized rows, and bind ranges equal to the
// reference's contiguous consumer-key runs.
func TestViewBuilderBindLookupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for trial := 0; trial < 300; trial++ {
		arity := trial % 5
		groupBy := make([]data.AttrID, arity)
		for c := range groupBy {
			groupBy[c] = data.AttrID(10 + c)
		}
		const stride = 2
		b := newViewBuilder(groupBy, stride, false, nil)
		ref := map[string]int32{}
		var refKeys [][]int64
		var refVals []float64
		for op := 0; op < 1+rng.Intn(400); op++ {
			key := randKey(rng, arity)
			if len(refKeys) > 0 && rng.Intn(3) == 0 {
				key = append([]int64(nil), refKeys[rng.Intn(len(refKeys))]...) // revisit
			}
			pk := data.PackKey(key...)
			want, ok := ref[pk]
			if !ok {
				want = int32(len(refKeys))
				ref[pk] = want
				refKeys = append(refKeys, key)
				refVals = append(refVals, make([]float64, stride)...)
			}
			if got := b.row(key); got != want {
				t.Fatalf("trial %d op %d: row(%v) = %d, want %d", trial, op, key, got, want)
			}
			col, val := rng.Intn(stride), rng.NormFloat64()
			b.add(want, col, val)
			refVals[int(want)*stride+col] += val
		}

		// Finalize against a random consumer (nil: an application output).
		var target []data.AttrID
		if rng.Intn(3) > 0 {
			target = []data.AttrID{999}
			for _, a := range groupBy {
				if rng.Intn(2) == 0 {
					target = append(target, a)
				}
			}
		}
		v := b.finalize(target)
		if v.NumRows() != len(refKeys) {
			t.Fatalf("trial %d: %d rows, want %d", trial, v.NumRows(), len(refKeys))
		}
		for i := 1; i < v.rows; i++ {
			if cmpRows(v, i-1, v, i) >= 0 {
				t.Fatalf("trial %d: rows %d,%d not strictly increasing", trial, i-1, i)
			}
		}
		for r, key := range refKeys {
			i := v.Lookup(key...)
			if i < 0 {
				t.Fatalf("trial %d: Lookup(%v) missed", trial, key)
			}
			for c := 0; c < stride; c++ {
				if math.Float64bits(v.Val(i, c)) != math.Float64bits(refVals[r*stride+c]) {
					t.Fatalf("trial %d: key %v col %d = %v, want %v", trial, key, c, v.Val(i, c), refVals[r*stride+c])
				}
			}
		}
		for probe := 0; probe < 20; probe++ {
			key := randKey(rng, arity)
			if _, ok := ref[data.PackKey(key...)]; !ok && v.Lookup(key...) >= 0 {
				t.Fatalf("trial %d: Lookup(%v) hit an absent key", trial, key)
			}
		}

		// Bind: reference ranges are the runs of equal consumer key in the
		// sorted rows, found by a linear scan.
		skey := func(r int) []int64 {
			k := make([]int64, v.nskey)
			for j := range k {
				k[j] = v.Keys[v.order[j]][r]
			}
			return k
		}
		refRange := func(key []int64) (int32, int32) {
			lo, hi := -1, -1
			for r := 0; r < v.rows; r++ {
				if data.PackKey(skey(r)...) == data.PackKey(key...) {
					if lo < 0 {
						lo = r
					}
					hi = r + 1
				}
			}
			if lo < 0 {
				return 0, 0
			}
			return int32(lo), int32(hi)
		}
		var probes [][]int64
		for r := 0; r < v.rows; r++ {
			probes = append(probes, skey(r)) // ascending, with repeats
		}
		for p := 0; p < 30; p++ {
			probes = append(probes, randKey(rng, v.nskey)) // any order, mostly absent
		}
		for _, key := range probes {
			lo, hi, ok := v.bind(key)
			wlo, whi := refRange(key)
			if ok != (whi > wlo) || (ok && (lo != wlo || hi != whi)) {
				t.Fatalf("trial %d: bind(%v) = [%d,%d) %v, want [%d,%d)", trial, key, lo, hi, ok, wlo, whi)
			}
		}
	}
}

// TestDenseBuilderMatchesHashed drives dense and hashed builders with the
// same random keys from random boxes (arity 0–4; negative lows, single-value
// columns, boxes exactly at the budget), each with a second builder of the
// same addressing merged in, as the domain-parallel parts are. Row ids and
// finalized views must be identical, sums bit for bit: the rows enter
// finalize in the same order, so equal sorted views mean the slot walk
// produced data.SortIDs's permutation. Boxes spanning the int64 range stay
// hashed, and a key outside a dense box panics.
func TestDenseBuilderMatchesHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(7919))
	for trial := 0; trial < 300; trial++ {
		arity := trial % 5
		groupBy := make([]data.AttrID, arity)
		box := make([]keySpan, arity)
		for c := range groupBy {
			groupBy[c] = data.AttrID(10 + c)
			lo := int64(rng.Intn(41) - 30)
			box[c] = keySpan{lo, lo + int64(rng.Intn(3)*rng.Intn(5))}
		}
		size, _ := boxSize(box, math.MaxInt)
		if _, ok := boxSize(box, size); !ok {
			t.Fatalf("trial %d: box %v of %d slots does not fit a budget of %d", trial, box, size, size)
		}
		if _, ok := boxSize(box, size-1); ok {
			t.Fatalf("trial %d: box %v of %d slots fits a budget of %d", trial, box, size, size-1)
		}
		var target []data.AttrID
		if rng.Intn(3) > 0 {
			target = []data.AttrID{999}
			for _, a := range groupBy {
				if rng.Intn(2) == 0 {
					target = append(target, a)
				}
			}
		}
		order, _ := sortOrder(groupBy, target)
		dl := newDenseLayout(box, order, size)
		const stride = 2
		scalar := rng.Intn(2) == 0
		dense := [2]*viewBuilder{newViewBuilder(groupBy, stride, scalar, dl), newViewBuilder(groupBy, stride, false, dl)}
		hashed := [2]*viewBuilder{newViewBuilder(groupBy, stride, scalar, nil), newViewBuilder(groupBy, stride, false, nil)}
		for op := 0; op < 1+rng.Intn(300); op++ {
			key := make([]int64, arity)
			for c, s := range box {
				key[c] = s.lo + rng.Int63n(s.hi-s.lo+1)
			}
			part := rng.Intn(3) / 2
			r := dense[part].row(key)
			if want := hashed[part].row(key); r != want {
				t.Fatalf("trial %d op %d: dense row(%v) = %d, hashed %d", trial, op, key, r, want)
			}
			col, val := rng.Intn(stride), rng.NormFloat64()
			dense[part].add(r, col, val)
			hashed[part].add(r, col, val)
		}
		dense[0].merge(dense[1])
		hashed[0].merge(hashed[1])
		dv, hv := dense[0].finalize(target), hashed[0].finalize(target)
		if dv.rows != hv.rows {
			t.Fatalf("trial %d: %d dense rows, %d hashed", trial, dv.rows, hv.rows)
		}
		for i := 0; i < dv.rows; i++ {
			if i > 0 && cmpRows(dv, i-1, dv, i) >= 0 {
				t.Fatalf("trial %d: dense rows %d,%d not strictly increasing", trial, i-1, i)
			}
			if !slices.Equal(dv.Key(i), hv.Key(i)) {
				t.Fatalf("trial %d row %d: dense key %v, hashed %v", trial, i, dv.Key(i), hv.Key(i))
			}
			for c := 0; c < stride; c++ {
				if math.Float64bits(dv.Val(i, c)) != math.Float64bits(hv.Val(i, c)) {
					t.Fatalf("trial %d row %d col %d: dense %v, hashed %v", trial, i, c, dv.Val(i, c), hv.Val(i, c))
				}
			}
		}
		if arity > 0 {
			c := rng.Intn(arity)
			key := make([]int64, arity)
			for j, s := range box {
				key[j] = s.lo
			}
			key[c] = box[c].hi + 1
			if rng.Intn(2) == 0 {
				key[c] = box[c].lo - 1
			}
			b := newViewBuilder(groupBy, stride, false, dl)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("trial %d: key %v outside box %v did not panic", trial, key, box)
					}
				}()
				b.row(key)
			}()
		}
	}
	for _, box := range [][]keySpan{
		{{math.MinInt64, math.MaxInt64}},
		{{0, 0}, {math.MinInt64, math.MaxInt64}},
		{{math.MinInt64, -1}, {0, math.MaxInt64}},
		{{1, 0}},
	} {
		if size, ok := boxSize(box, math.MaxInt); ok {
			t.Fatalf("box %v: %d slots, want hashed", box, size)
		}
	}
}

// benchView builds a two-key view of n rows emitted in a scattered order and
// finalizes it against a consumer keyed on its first attribute. Its
// consumer keys are dense (n/4 values), so it carries a row directory.
func benchView(n int) *ViewData { return spreadView(n, 1) }

// spreadView is benchView with the consumer-key values spread spread apart:
// past a spread of about 48, the box outgrows the directory budget and binds
// search.
func spreadView(n int, spread int64) *ViewData {
	b := newViewBuilder([]data.AttrID{1, 2}, 4, false, nil)
	for i := 0; i < n; i++ {
		j := int64(i * 7919 % n)
		r := b.row([]int64{j / 4 * spread, j % 4})
		b.add(r, 0, 1)
	}
	return b.finalize([]data.AttrID{1})
}

// TestViewHotPathsAllocateNothing: a hashed or dense builder row hit, a bind
// and a Lookup — through a row directory or by search — read and compare
// int64 columns in place: no packed keys, no allocation.
func TestViewHotPathsAllocateNothing(t *testing.T) {
	b := newViewBuilder([]data.AttrID{1, 2}, 1, false, nil)
	for i := int64(0); i < 100; i++ {
		b.row([]int64{i, -i})
	}
	hit := []int64{42, -42}
	b.row([]int64{0, 0}) // the probe below misses the last-row check
	if n := testing.AllocsPerRun(100, func() { b.row(hit) }); n != 0 {
		t.Fatalf("row hit allocates %v times", n)
	}
	box := []keySpan{{0, 99}, {-99, 0}}
	d := newViewBuilder([]data.AttrID{1, 2}, 1, false, newDenseLayout(box, []int{0, 1}, 100*100))
	for i := int64(0); i < 100; i++ {
		d.row([]int64{i, -i})
	}
	if n := testing.AllocsPerRun(100, func() { d.row(hit) }); n != 0 {
		t.Fatalf("dense row hit allocates %v times", n)
	}
	whole := newViewBuilder([]data.AttrID{1, 2}, 1, false, nil)
	for i := int64(0); i < 1000; i++ {
		whole.row([]int64{i / 4, i % 4})
	}
	out := whole.finalize(nil) // an application output: the key is the whole group-by
	for _, c := range []struct {
		name string
		v    *ViewData
		dir  bool
	}{
		{"directory", benchView(1000), true},
		{"whole-key directory", out, true},
		{"search", spreadView(1000, 1000), false},
	} {
		if (c.v.dir != nil) != c.dir {
			t.Fatalf("%s view: directory %v, want %v", c.name, c.v.dir != nil, c.dir)
		}
		full := []int64{c.v.KeyAt(c.v.NumRows()/2, 0), 2}
		key := full[:c.v.nskey] // GroupBy order is sort order here
		if n := testing.AllocsPerRun(100, func() { c.v.bind(key) }); n != 0 {
			t.Fatalf("%s bind allocates %v times", c.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.v.Lookup(full...) }); n != 0 {
			t.Fatalf("%s Lookup allocates %v times", c.name, n)
		}
		if _, _, ok := c.v.bind(key); !ok || c.v.Lookup(full...) < 0 {
			t.Fatalf("%s view: key %v not found", c.name, full)
		}
	}
}

func BenchmarkViewBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchView(1 << 16)
	}
}

func BenchmarkViewBind(b *testing.B) {
	v := benchView(1 << 16)
	key := []int64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := int64(0); k < 1<<14; k++ {
			key[0] = k
			v.bind(key)
		}
	}
}

// BenchmarkViewBindSparse times binds on a view whose consumer keys spread
// past the directory budget: the binary search that stands in for it.
func BenchmarkViewBindSparse(b *testing.B) {
	const spread = 1000
	v := spreadView(1<<16, spread)
	if v.dir != nil {
		b.Fatal("sparse view got a directory")
	}
	key := []int64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := int64(0); k < 1<<14; k++ {
			key[0] = k * spread
			v.bind(key)
		}
	}
}

func BenchmarkViewLookup(b *testing.B) {
	v := benchView(1 << 16)
	key := []int64{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := int64(0); k < 1<<14; k++ {
			key[0], key[1] = k, k%4
			v.Lookup(key...)
		}
	}
}

// longestRun returns the longest run of occupied slots in b's table: the
// most a probe can walk.
func longestRun(b *viewBuilder) int {
	best, run := 0, 0
	for _, s := range b.slots {
		if s == 0 {
			run = 0
			continue
		}
		run++
		best = max(best, run)
	}
	return best
}

// TestViewBuilderResistsCollidingKeys: the hash is invertible, so keys can be
// chosen to share one slot under a known seed — here the first builder's.
// Built by that builder they form one probe run as long as the key set; a
// second builder draws its own seed and spreads them out.
func TestViewBuilderResistsCollidingKeys(t *testing.T) {
	inv := uint64(hashMul) // inverse of hashMul mod 2^64, by Newton's iteration
	for i := 0; i < 6; i++ {
		inv *= 2 - hashMul*inv
	}
	first := newViewBuilder([]data.AttrID{1}, 1, false, nil)
	const n = 3000
	keys := make([]int64, n)
	for j := range keys {
		keys[j] = int64(first.seed ^ uint64(j)*inv) // hashes to j: top bits all zero
	}
	second := newViewBuilder([]data.AttrID{1}, 1, false, nil)
	if second.seed == first.seed {
		t.Fatal("two builders drew the same seed")
	}
	for _, b := range []*viewBuilder{first, second} {
		for _, k := range keys {
			b.add(b.row([]int64{k}), 0, float64(k))
		}
	}
	if got := longestRun(first); got != n {
		t.Fatalf("keys chosen for the first seed: longest probe run %d, want %d", got, n)
	}
	if got := longestRun(second); got > 100 {
		t.Fatalf("another seed: longest probe run %d of %d keys", got, n)
	}
	v := second.finalize(nil)
	for _, k := range keys {
		if r := v.Lookup(k); r < 0 || v.Val(r, 0) != float64(k) {
			t.Fatalf("Lookup(%d) = %d", k, r)
		}
	}
}

// TestRunBuilderMatchesHashed drives run builders the way a domain-parallel
// scan of a run-built view does — keys arriving sorted in a random column
// order, often the view's sort order for a random consumer, each in one run,
// split into chunks at the first column, some keys never written — against
// a hashed builder fed the same writes. A store not in sort order is
// reordered by walking its key box or, without one, by sorting. The
// finalized views must be identical, sums bit for bit; a store whose every
// row is used is published in place, without a copy.
func TestRunBuilderMatchesHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 300; trial++ {
		arity := 1 + trial%4
		groupBy := make([]data.AttrID, arity)
		for c := range groupBy {
			groupBy[c] = data.AttrID(10 + c)
		}
		var target []data.AttrID
		if rng.Intn(3) > 0 {
			target = []data.AttrID{999}
			for _, a := range groupBy {
				if rng.Intn(2) == 0 {
					target = append(target, a)
				}
			}
		}
		order, _ := sortOrder(groupBy, target)
		scan := order // scan depth d binds GroupBy column scan[d]
		if rng.Intn(2) == 0 {
			scan = rng.Perm(arity)
		}
		// The scanned key prefixes, sorted in scan order, then cut into
		// chunks at first-column changes.
		var prefixes [][]int64
		for i := rng.Intn(60); i >= 0; i-- {
			p := make([]int64, arity)
			for d := range p {
				p[d] = int64(rng.Intn(4) - 1)
			}
			prefixes = append(prefixes, p)
		}
		slices.SortFunc(prefixes, slices.Compare[[]int64])
		prefixes = slices.CompactFunc(prefixes, slices.Equal[[]int64])
		bounds := []int{0}
		for i := 1; i < len(prefixes); i++ {
			if prefixes[i][0] != prefixes[i-1][0] && rng.Intn(2) == 0 {
				bounds = append(bounds, i)
			}
		}
		bounds = append(bounds, len(prefixes))
		const stride = 3
		st := &runStore{keys: make([][]int64, arity), vals: make([]float64, len(prefixes)*stride), sorted: slices.Equal(scan, order)}
		for c := range st.keys {
			st.keys[c] = make([]int64, len(prefixes))
		}
		if !st.sorted && len(prefixes) > 0 && rng.Intn(2) == 0 {
			box := make([]keySpan, arity)
			for d, c := range scan {
				box[c] = emptySpan
				for _, p := range prefixes {
					box[c] = box[c].union(keySpan{p[d], p[d]})
				}
			}
			size, _ := boxSize(box, math.MaxInt)
			st.walk = newDenseLayout(box, order, size)
		}
		unused := rng.Intn(3) == 0
		hashed := newViewBuilder(groupBy, stride, false, nil)
		var parts []*viewBuilder
		for t := 0; t+1 < len(bounds); t++ {
			b := newViewBuilder(groupBy, stride, false, nil)
			b.useRun(runWindow{store: st, off: bounds[t], n: bounds[t+1] - bounds[t]})
			parts = append(parts, b)
			for _, p := range prefixes[bounds[t]:bounds[t+1]] {
				if rng.Intn(4) == 0 || unused && rng.Intn(4) > 0 {
					continue // no join tuple for this key
				}
				key := make([]int64, arity)
				for d, c := range scan {
					key[c] = p[d]
				}
				for w := rng.Intn(3); w >= 0; w-- {
					col, val := rng.Intn(stride), rng.NormFloat64()
					b.add(b.row(key), col, val)
					hashed.add(hashed.row(key), col, val)
				}
			}
		}
		for _, p := range parts[1:] {
			parts[0].merge(p)
		}
		rv, hv := parts[0].finalize(target), hashed.finalize(target)
		if rv.rows != hv.rows {
			t.Fatalf("trial %d: %d run rows, %d hashed", trial, rv.rows, hv.rows)
		}
		for i := 0; i < rv.rows; i++ {
			if !slices.Equal(rv.Key(i), hv.Key(i)) {
				t.Fatalf("trial %d row %d: run key %v, hashed %v", trial, i, rv.Key(i), hv.Key(i))
			}
			for c := 0; c < stride; c++ {
				if math.Float64bits(rv.Val(i, c)) != math.Float64bits(hv.Val(i, c)) {
					t.Fatalf("trial %d row %d col %d: run %v, hashed %v", trial, i, c, rv.Val(i, c), hv.Val(i, c))
				}
			}
		}
		if inPlace := rv.rows > 0 && &rv.Vals[0] == &st.vals[0]; inPlace != (rv.rows == len(prefixes)) {
			t.Fatalf("trial %d: %d of %d rows used, published in place: %v", trial, rv.rows, len(prefixes), inPlace)
		}
	}
}
