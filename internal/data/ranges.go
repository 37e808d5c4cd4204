package data

// RangeEnd returns the end (exclusive) of the run of rows in vals[lo:hi)
// equal to vals[lo]. vals must be sorted within [lo, hi). This is the
// primitive behind the trie-style grouped scan of sorted relations: the MOO
// executor sees the relation "organized logically as a trie: first grouped by
// one attribute, then by the next in the context of values for the first"
// (paper §1.2).
func RangeEnd(vals []int64, lo, hi int) int {
	v := vals[lo]
	// Galloping search: runs are often long in fact tables sorted by a
	// low-cardinality leading attribute, so probe exponentially before
	// falling back to binary search within the final bracket.
	step := 1
	i := lo + 1
	for i < hi && vals[i] == v {
		i += step
		step <<= 1
	}
	// The run ends somewhere in (i-step, min(i, hi)].
	lo2 := i - step
	hi2 := i
	if hi2 > hi {
		hi2 = hi
	}
	for lo2 < hi2 {
		mid := int(uint(lo2+hi2) >> 1)
		if vals[mid] == v {
			lo2 = mid + 1
		} else {
			hi2 = mid
		}
	}
	return lo2
}

// RangeEndIDs is RangeEnd over an id-indirected column: it returns the end
// (exclusive) of the run of positions in ids[lo:hi) whose rows carry the same
// vals value as ids[lo]. The ids slice must be ordered so that vals[ids[i]]
// is sorted within [lo, hi) — the row-id-batched restricted scan sorts
// candidate ids by the scan's attribute order and then walks them trie-style
// against the unsorted base relation, never materializing a row subset.
func RangeEndIDs(vals []int64, ids []int32, lo, hi int) int {
	v := vals[ids[lo]]
	// Same galloping shape as RangeEnd; runs of a low-cardinality leading
	// attribute stay long even after semi-join restriction.
	step := 1
	i := lo + 1
	for i < hi && vals[ids[i]] == v {
		i += step
		step <<= 1
	}
	lo2 := i - step
	hi2 := i
	if hi2 > hi {
		hi2 = hi
	}
	for lo2 < hi2 {
		mid := int(uint(lo2+hi2) >> 1)
		if vals[ids[mid]] == v {
			lo2 = mid + 1
		} else {
			hi2 = mid
		}
	}
	return lo2
}

// ForEachRange invokes fn(value, lo, hi) for each maximal run of equal values
// in vals[lo:hi). vals must be sorted within the range.
func ForEachRange(vals []int64, lo, hi int, fn func(v int64, l, h int)) {
	for lo < hi {
		end := RangeEnd(vals, lo, hi)
		fn(vals[lo], lo, end)
		lo = end
	}
}
