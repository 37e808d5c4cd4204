package data

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// sortCase is one SortIDs input: ids into columns of rows values each.
type sortCase struct {
	ids  []int32
	keys [][]int64
}

// randomSortCase draws rows values per key column from [lo, lo+span) and
// ids as a shuffled or ascending subset of the rows (or all of them).
func randomSortCase(rng *rand.Rand, rows, nKeys int, lo, span int64) sortCase {
	keys := make([][]int64, nKeys)
	for j := range keys {
		keys[j] = make([]int64, rows)
		for i := range keys[j] {
			keys[j][i] = lo + rng.Int63n(span)
		}
	}
	ids := identityIDs(rows)
	switch rng.Intn(3) {
	case 1:
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	case 2:
		sub := ids[:0]
		for _, id := range ids {
			if rng.Intn(3) > 0 {
				sub = append(sub, id)
			}
		}
		ids = sub
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
	}
	return sortCase{ids, keys}
}

// checkSortIDs sorts c's ids by the comparator, by radixSort and by
// SortIDs and requires one permutation. radixSort must take every case of
// at most 64 packed bits and leave the others untouched.
func checkSortIDs(t *testing.T, name string, c sortCase, packedBits int) {
	t.Helper()
	want := slices.Clone(c.ids)
	compareSort(want, c.keys)
	for i := 1; i < len(want); i++ {
		if !idsBefore(c.keys, want[i-1], want[i]) {
			t.Fatalf("%s: comparator order broken at %d", name, i)
		}
	}
	got := slices.Clone(c.ids)
	took := radixSort(got, c.keys)
	if took != (packedBits <= 64) {
		t.Fatalf("%s: radixSort took=%v for %d packed bits", name, took, packedBits)
	}
	if !took && !slices.Equal(got, c.ids) {
		t.Fatalf("%s: radixSort refused the case but moved ids", name)
	}
	if took && !slices.Equal(got, want) {
		t.Fatalf("%s: radixSort differs from the comparator:\n got %v\nwant %v", name, got, want)
	}
	got = slices.Clone(c.ids)
	SortIDs(got, c.keys)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: SortIDs differs from the comparator", name)
	}
}

// idsBefore reports whether x sorts strictly before y by (keys, id).
func idsBefore(keys [][]int64, x, y int32) bool {
	for _, k := range keys {
		if k[x] != k[y] {
			return k[x] < k[y]
		}
	}
	return x < y
}

// packedBits is the width radixSort packs c into, computed independently
// of it: the bit length of each column's range over ids, plus the ids'.
func packedBits(c sortCase) int {
	if len(c.ids) == 0 {
		return 0
	}
	w := bits.Len64(uint64(slices.Max(c.ids)) - uint64(slices.Min(c.ids)))
	for _, k := range c.keys {
		lo, hi := k[c.ids[0]], k[c.ids[0]]
		for _, id := range c.ids {
			lo, hi = min(lo, k[id]), max(hi, k[id])
		}
		w += bits.Len64(uint64(hi) - uint64(lo))
	}
	return w
}

// TestSortIDsRadixMatchesComparator is the property behind the radix
// kernel: on every input it gives the comparator's permutation, and it
// refuses exactly the inputs wider than 64 packed bits.
func TestSortIDsRadixMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := map[string]sortCase{
		"empty":     {ids: nil, keys: [][]int64{{}}},
		"one":       {ids: []int32{0}, keys: [][]int64{{-5}}},
		"one-of-3":  {ids: []int32{2}, keys: [][]int64{{1, 2, 3}}},
		"no-keys":   {ids: []int32{5, 3, 9, 0, 7}, keys: nil},
		"all-equal": {ids: []int32{4, 1, 3, 0, 2}, keys: [][]int64{{7, 7, 7, 7, 7}, {-1, -1, -1, -1, -1}}},
		"negative":  {ids: []int32{0, 1, 2, 3, 4}, keys: [][]int64{{-3, 5, -3, math.MinInt64 / 4, 0}}},
		"full-int64": {ids: []int32{0, 1, 2, 3},
			keys: [][]int64{{math.MaxInt64, math.MinInt64, 0, -1}}},
		"full-int64-tied": {ids: []int32{3, 2, 1, 0},
			keys: [][]int64{{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64}}},
	}
	// Exactly 64 and 65 packed bits: ids 0..1023 take 10 bits, so a
	// 54-bit key range is 64 bits and a 55-bit one is 65.
	for _, kb := range []int{54, 55} {
		rows := 1024
		k := make([]int64, rows)
		for i := range k {
			k[i] = rng.Int63n(1<<kb) - 1<<(kb-1)
		}
		k[0], k[1] = -(1 << (kb - 1)), 1<<(kb-1)-1 // range exactly 2^kb - 1
		ids := identityIDs(rows)
		rng.Shuffle(rows, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		cases[fmt.Sprintf("width-%d", kb+10)] = sortCase{ids, [][]int64{k}}
	}
	// Two columns whose widths add past 64 with a small id field.
	wide := randomSortCase(rng, 2*radixMinRows, 2, math.MinInt64/2, math.MaxInt64)
	cases["two-wide-columns"] = wide
	for name, c := range cases {
		checkSortIDs(t, name, c, packedBits(c))
	}
	if w := packedBits(cases["width-64"]); w != 64 {
		t.Fatalf("width-64 case packs %d bits", w)
	}
	if w := packedBits(cases["width-65"]); w != 65 {
		t.Fatalf("width-65 case packs %d bits", w)
	}
	if w := packedBits(cases["full-int64"]); w <= 64 {
		t.Fatalf("full-int64 case packs %d bits, want the fallback", w)
	}

	// Random shapes on both sides of the cutoff: ties (small spans),
	// negative keys, shuffled and subset ids.
	for i := 0; i < 300; i++ {
		rows := []int{0, 1, 2, 17, radixMinRows - 1, radixMinRows, radixMinRows + 1, 3000}[rng.Intn(8)]
		span := []int64{1, 3, 50, 1 << 20, 1 << 40}[rng.Intn(5)]
		lo := []int64{0, -span / 2, -1 << 40, math.MinInt64 / 2}[rng.Intn(4)]
		c := randomSortCase(rng, rows, rng.Intn(5), lo, span)
		checkSortIDs(t, fmt.Sprintf("random-%d", i), c, packedBits(c))
	}
}

// FuzzSortIDs decodes a key block and an id list from the input and
// requires radixSort, SortIDs and the comparator to agree.
func FuzzSortIDs(f *testing.F) {
	f.Add(uint8(1), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(2), uint8(40), []byte{0xff, 0x80, 0x7f, 0x00, 0x01, 0xfe})
	f.Add(uint8(3), uint8(0), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(0), uint8(7), []byte{3, 1, 2})
	f.Add(uint8(1), uint8(63), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, nKeys, shift uint8, raw []byte) {
		nk := int(nKeys % 4)
		rows := 1 + len(raw)/(1+nk)
		keys := make([][]int64, nk)
		for j := range keys {
			keys[j] = make([]int64, rows)
		}
		ids := make([]int32, 0, rows)
		seen := make([]bool, rows)
		for i, b := range raw {
			r, j := i/(1+nk), i%(1+nk)
			if r >= rows {
				break
			}
			if j == nk { // the row's last byte picks an id to include
				if id := int(b) % rows; !seen[id] {
					seen[id] = true
					ids = append(ids, int32(id))
				}
				continue
			}
			// Signed bytes scaled up: wide, negative and tied keys.
			keys[j][r] = int64(int8(b)) << (shift % 64)
		}
		c := sortCase{ids, keys}
		checkSortIDs(t, "fuzz", c, packedBits(c))
	})
}

// sortBenchKeys draws n rows over the favorita-like key domains
// 1700/54/4100 (the fourth, when asked, is full int64 and forces the
// comparator fallback).
func sortBenchKeys(n, nKeys int) [][]int64 {
	rng := rand.New(rand.NewSource(7))
	domains := []int64{1700, 54, 4100}
	keys := make([][]int64, nKeys)
	for j := range keys {
		keys[j] = make([]int64, n)
		for i := range keys[j] {
			if j < len(domains) {
				keys[j][i] = rng.Int63n(domains[j])
			} else {
				keys[j][i] = int64(rng.Uint64())
			}
		}
	}
	return keys
}

// BenchmarkSortIDs sorts 625k row ids (a favorita fact relation at bench
// scale) by one, two and three keys through the radix kernel, and by a
// key wider than 64 packed bits through the comparator. B/op is the
// radix scratch: two 8-byte words per row. The Cutoff cases time both
// kernels on each side of radixMinRows.
func BenchmarkSortIDs(b *testing.B) {
	const rows = 625_000
	run := func(b *testing.B, n int, keys [][]int64, sort func([]int32, [][]int64)) {
		ids := make([]int32, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := range ids {
				ids[r] = int32(r)
			}
			sort(ids, keys)
		}
	}
	for _, nKeys := range []int{1, 2, 3} {
		keys := sortBenchKeys(rows, nKeys)
		b.Run(fmt.Sprintf("keys=%d", nKeys), func(b *testing.B) { run(b, rows, keys, SortIDs) })
	}
	k4 := sortBenchKeys(rows, 4)
	wide := [][]int64{k4[0], k4[3]}
	b.Run("wide", func(b *testing.B) { run(b, rows, wide, SortIDs) })
	radix := func(ids []int32, keys [][]int64) {
		if !radixSort(ids, keys) {
			b.Fatal("radixSort refused a narrow key")
		}
	}
	for _, n := range []int{radixMinRows / 4, radixMinRows / 2, radixMinRows, 2 * radixMinRows, 4 * radixMinRows} {
		keys := sortBenchKeys(n, 3)
		b.Run(fmt.Sprintf("Cutoff/n=%d/radix", n), func(b *testing.B) { run(b, n, keys, radix) })
		b.Run(fmt.Sprintf("Cutoff/n=%d/compare", n), func(b *testing.B) { run(b, n, keys, compareSort) })
	}
}
