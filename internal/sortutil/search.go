// Package sortutil implements the sorting substrate of the window operator
// (§5.1–§5.3): the stable radix sort on (key word, index) pairs that every
// fixed-width sort key and every hash array goes through (radix.go), the
// comparator path for keys that do not normalise to fixed-width words — a
// parallel merge sort with splitter-based parallel merging of sorted runs
// (Francis et al. 1993, psort.go) — and the binary-search primitives the
// merge sort tree probes are made of.
package sortutil

// LowerBound returns the number of elements in the sorted slice a that are
// strictly smaller than x, i.e. the first index at which x could be inserted
// while keeping a sorted. a must be sorted ascending.
func LowerBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the number of elements in the sorted slice a that are
// smaller than or equal to x. a must be sorted ascending.
func UpperBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
