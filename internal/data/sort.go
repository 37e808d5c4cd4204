package data

import (
	"math/bits"
	"slices"
)

// radixMinRows is the smallest id count SortIDs radix-sorts; below it the
// comparator wins, because a radix pass clears and prefix-sums its 2^11
// counters whatever n is. BenchmarkSortIDs's Cutoff cases time both
// kernels on 3 keys; on a 2-core Xeon the comparator was 2-3× faster at
// 256 ids, the two tied at 512, and radix was 1.3-2× faster from 1,024.
const radixMinRows = 1024

// radixDigitBits is the widest digit of one radix pass: 2^11 uint32
// counters (8 KiB) stay in L1, and a 42-bit packed word takes four passes.
const radixDigitBits = 11

// SortIDs sorts row ids in place by (keys[0][id], keys[1][id], ..., id):
// lexicographically by the key columns, ids equal on every key ascending.
// For ascending input — an identity permutation, or any ascending row
// subset — that is exactly the stable sort by the key columns, which is the
// row order every scan strategy must agree on for float accumulation to be
// bit-exact. Breaking ties by id makes the order total, so any correct
// sort yields the same permutation, whatever the input order.
//
// The kernel is an LSD radix sort over one packed uint64 per row (see
// radixSort): each key column is offset by its minimum over ids and packed
// most significant first above the id, so sorting the words sorts by (keys,
// id). It falls back to a typed comparison sort (pdqsort) below
// radixMinRows ids and when the packed width exceeds 64 bits. It is the one
// sort kernel behind sorted copies, key indexes, delta blocks and view
// finalization.
func SortIDs(ids []int32, keys [][]int64) {
	if len(ids) < radixMinRows || !radixSort(ids, keys) {
		compareSort(ids, keys)
	}
}

// radixSort sorts ids as SortIDs does and reports true, or reports false
// with ids untouched when the packed words would need more than 64 bits.
// A word holds, from the top, key column 0 minus its minimum, then the
// other columns in order, then the id minus the smallest id, each field
// exactly as wide as its range over ids. Every word is unique (the ids
// are), so the sorted words give the comparator's permutation bit for bit.
// Scratch is two words per id.
func radixSort(ids []int32, keys [][]int64) bool {
	n := len(ids)
	if n == 0 {
		return true
	}
	idLo, idHi := ids[0], ids[0]
	for _, id := range ids {
		idLo, idHi = min(idLo, id), max(idHi, id)
	}
	idBits := bits.Len32(uint32(idHi) - uint32(idLo))
	width := idBits
	lo := make([]int64, len(keys))
	span := make([]int, len(keys))
	for j, k := range keys {
		mn, mx := k[ids[0]], k[ids[0]]
		for _, id := range ids {
			mn, mx = min(mn, k[id]), max(mx, k[id])
		}
		// uint64 subtraction is exact for any int64 pair: hi-lo fits 64 bits.
		lo[j], span[j] = mn, bits.Len64(uint64(mx)-uint64(mn))
		if width += span[j]; width > 64 {
			return false
		}
	}

	words := make([]uint64, 2*n)
	src, dst := words[:n], words[n:]
	for i, id := range ids {
		src[i] = uint64(uint32(id) - uint32(idLo))
	}
	shift := idBits
	for j := len(keys) - 1; j >= 0; j-- {
		if span[j] == 0 {
			continue
		}
		k, l, s := keys[j], uint64(lo[j]), shift
		for i, id := range ids {
			src[i] |= (uint64(k[id]) - l) << s
		}
		shift += span[j]
	}

	// Equal-width digits, as few passes as 11-bit digits allow; every
	// pass's histogram comes from one read of the packed words.
	passes := (width + radixDigitBits - 1) / radixDigitBits
	if passes > 0 {
		digit := uint((width + passes - 1) / passes)
		mask := uint64(1)<<digit - 1
		counts := make([]uint32, passes<<digit)
		for _, w := range src {
			for p := 0; p < passes; p++ {
				counts[p<<digit|int(w>>(uint(p)*digit)&mask)]++
			}
		}
		for p := 0; p < passes; p++ {
			s := uint(p) * digit
			count := counts[p<<digit : (p+1)<<digit]
			if count[src[0]>>s&mask] == uint32(n) {
				continue // every word has this digit: the pass would copy
			}
			var sum uint32
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			for _, w := range src {
				d := w >> s & mask
				dst[count[d]] = w
				count[d]++
			}
			src, dst = dst, src
		}
	}
	idMask := uint64(1)<<idBits - 1
	for i, w := range src {
		ids[i] = int32(uint32(w&idMask) + uint32(idLo))
	}
	return true
}

// compareSort is SortIDs by comparison: pdqsort with the (keys, id) order
// specialised for one- and two-column keys.
func compareSort(ids []int32, keys [][]int64) {
	switch len(keys) {
	case 0:
		slices.Sort(ids)
	case 1:
		k0 := keys[0]
		slices.SortFunc(ids, func(x, y int32) int {
			if a, b := k0[x], k0[y]; a != b {
				return cmpLess(a < b)
			}
			return int(x - y)
		})
	case 2:
		k0, k1 := keys[0], keys[1]
		slices.SortFunc(ids, func(x, y int32) int {
			if a, b := k0[x], k0[y]; a != b {
				return cmpLess(a < b)
			}
			if a, b := k1[x], k1[y]; a != b {
				return cmpLess(a < b)
			}
			return int(x - y)
		})
	default:
		slices.SortFunc(ids, func(x, y int32) int {
			for _, k := range keys {
				if a, b := k[x], k[y]; a != b {
					return cmpLess(a < b)
				}
			}
			return int(x - y)
		})
	}
}

func cmpLess(less bool) int {
	if less {
		return -1
	}
	return 1
}

// identityIDs returns [0, 1, ..., n-1].
func identityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
