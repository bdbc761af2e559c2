// Package segtree implements the sorted-list-annotated segment tree (base
// intervals, Arasu & Widom 2004), the percentile competitor the paper
// compares against (§3.2, Table 1): every node carries the sorted list of
// its leaves' values, so a percentile query covers the frame with O(log n)
// nodes and binary searches the k-th element across their lists, costing
// O((log n)²) per frame. cmd/paperbench drives it as a baseline; the window
// operator does not use it.
package segtree

import (
	"holistic/internal/parallel"
	"holistic/internal/sortutil"
)

// SortedTree is a segment tree whose nodes carry the sorted list of the
// values beneath them — the "base intervals" percentile competitor (§3.2).
// Building takes O(n log n) time and space; selecting the k-th smallest
// value in a frame takes O((log n)²).
type SortedTree struct {
	n     int
	nodes [][]int64 // nodes[1] is the root; leaves at [n, 2n)
}

// NewSorted builds a sorted segment tree over values. Construction merges
// children bottom-up — one task per node level-by-level, so the build
// parallelizes like the merge sort tree's.
func NewSorted(values []int64) *SortedTree {
	n := len(values)
	t := &SortedTree{n: n}
	if n == 0 {
		return t
	}
	t.nodes = make([][]int64, 2*n)
	parallel.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.nodes[n+i] = values[i : i+1]
		}
	})
	// Merge pairs bottom-up. Internal node i covers nodes 2i and 2i+1; node
	// indices [2^j, 2^(j+1)) form independent bands whose children all lie
	// in later bands (or are leaves), so each band is processed in parallel.
	band := 1
	for band*2 <= n-1 {
		band *= 2
	}
	for ; band >= 1; band /= 2 {
		bandLo := band
		bandHi := 2 * band
		if bandHi > n {
			bandHi = n
		}
		parallel.ForEach(bandHi-bandLo, func(off int) {
			i := bandLo + off
			l, r := t.nodes[2*i], t.nodes[2*i+1]
			merged := make([]int64, len(l)+len(r))
			mi, li, ri := 0, 0, 0
			for li < len(l) && ri < len(r) {
				if l[li] <= r[ri] {
					merged[mi] = l[li]
					li++
				} else {
					merged[mi] = r[ri]
					ri++
				}
				mi++
			}
			mi += copy(merged[mi:], l[li:])
			copy(merged[mi:], r[ri:])
			t.nodes[i] = merged
		})
	}
	return t
}

// Len returns the number of leaves.
func (t *SortedTree) Len() int { return t.n }

// cover returns the canonical node lists covering leaf positions [lo, hi).
func (t *SortedTree) cover(lo, hi int) [][]int64 {
	var runs [][]int64
	l, r := lo+t.n, hi+t.n
	for l < r {
		if l&1 == 1 {
			runs = append(runs, t.nodes[l])
			l++
		}
		if r&1 == 1 {
			r--
			runs = append(runs, t.nodes[r])
		}
		l >>= 1
		r >>= 1
	}
	return runs
}

// Kth returns the k-th smallest (0-based) value at leaf positions [lo, hi).
// ok is false when the clamped range holds fewer than k+1 values.
//
// The frame is covered by O(log n) sorted lists; the answer is found by
// binary searching the value domain, counting elements <= candidate across
// all lists — two nested logarithmic factors, hence O((log n)²).
func (t *SortedTree) Kth(lo, hi, k int) (value int64, ok bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if k < 0 || k >= hi-lo {
		return 0, false
	}
	runs := t.cover(lo, hi)
	var vLo, vHi int64
	first := true
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		if first {
			vLo, vHi = run[0], run[len(run)-1]
			first = false
			continue
		}
		if run[0] < vLo {
			vLo = run[0]
		}
		if run[len(run)-1] > vHi {
			vHi = run[len(run)-1]
		}
	}
	// Smallest v such that at least k+1 elements are <= v. The midpoint is
	// computed with unsigned arithmetic so extreme domains cannot overflow.
	for vLo < vHi {
		mid := vLo + int64((uint64(vHi)-uint64(vLo))>>1)
		cnt := 0
		for _, run := range runs {
			cnt += sortutil.UpperBound(run, mid)
		}
		if cnt >= k+1 {
			vHi = mid
		} else {
			vLo = mid + 1
		}
	}
	return vLo, true
}

// CountBelow returns the number of values smaller than threshold at leaf
// positions [lo, hi).
func (t *SortedTree) CountBelow(lo, hi int, threshold int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi {
		return 0
	}
	cnt := 0
	for _, run := range t.cover(lo, hi) {
		cnt += sortutil.LowerBound(run, threshold)
	}
	return cnt
}
