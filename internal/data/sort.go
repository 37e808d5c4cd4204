package data

import "slices"

// SortIDs sorts row ids in place by (keys[0][id], keys[1][id], ..., id):
// lexicographically by the key columns, ids equal on every key ascending.
// For ascending input — an identity permutation, or any ascending row
// subset — that is exactly the stable sort by the key columns, which is the
// row order every scan strategy must agree on for float accumulation to be
// bit-exact. Breaking ties by id makes the order total, so the kernel is a
// typed pattern-defeating quicksort (no reflection-based swapper, no stable
// merge passes); the comparison is specialised for one- and two-column
// keys, which cover most join keys and view finalizations. It is the one
// sort kernel behind sorted copies, key indexes, delta blocks and view
// finalization.
func SortIDs(ids []int32, keys [][]int64) {
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
