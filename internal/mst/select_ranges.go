package mst

import "fmt"

// maxSelectRanges bounds the number of value ranges a multi-range select
// accepts. Frame exclusion splits a frame into at most three continuous
// ranges (§4.7), so three is all the window operator ever needs.
const maxSelectRanges = 4

// SelectKthRanges generalises SelectKth to a union of disjoint value ranges:
// it returns the base position of the i-th entry (0-based, in position
// order) whose value falls into any of the half-open ranges. The ranges must
// be sorted and non-overlapping. Frame exclusion clauses produce such
// unions; the descent simply tracks one cascaded rank pair per range, so the
// query stays O(log n) with a constant factor of at most three (§4.7).
func (t *Tree) SelectKthRanges(ranges [][2]int64, i int) (pos int, ok bool) {
	if t.leafOnly {
		//lint:invariant selection descends by value through every level; the window operator never builds a select tree leaf-only
		panic("mst: SelectKthRanges on a leaf-only tree")
	}
	if i < 0 || t.n == 0 || len(ranges) == 0 {
		return 0, false
	}
	if len(ranges) > maxSelectRanges {
		//lint:invariant frame exclusion yields at most 3 ranges (§4.7); more is a window-operator bug, and truncating would silently mis-select
		panic(fmt.Sprintf("mst: SelectKthRanges got %d ranges, max %d", len(ranges), maxSelectRanges))
	}
	if t.chunks != nil {
		return t.chunkedSelectKthRanges(ranges, i)
	}
	var lo, hi [maxSelectRanges]int32
	m := 0
	for _, r := range ranges {
		if l, h := clampI32(r[0]), clampI32(r[1]); l < h {
			lo[m], hi[m] = l, h
			m++
		}
	}
	return selectRanges(t.mono, lo[:m], hi[:m], i)
}

// CountRanges returns the number of entries at positions [lo, hi) whose
// value falls into any of the sorted, disjoint half-open value ranges.
func (t *Tree) CountRanges(lo, hi int, ranges [][2]int64) int {
	total := 0
	for _, r := range ranges {
		total += t.CountRange(lo, hi, r[0], r[1])
	}
	return total
}

// selectRanges is the scalar Figure 7 descent: one selectStep (step.go) per
// level, with one rank pair per non-empty value range.
func selectRanges(t *tree, vlo, vhi []int32, i int) (int, bool) {
	top := t.top()
	run0 := t.run(top, 0)
	var rlo, rhi [maxSelectRanges]int32
	total := 0
	for j := range vlo {
		a, b := lowerBoundP(run0, vlo[j]), lowerBoundP(run0, vhi[j])
		rlo[j], rhi[j] = i32(a), i32(b)
		total += b - a
	}
	if i >= total {
		return 0, false
	}
	// The step's rank rows live on the stack up to the default fanout, whose
	// rows cost less to zero than one level costs to descend; a wider tree
	// pays an allocation per scalar query instead of 8 KiB of zeroing.
	var stack [2 * maxSelectRanges * DefaultFanout]int32
	scratch := stack[:]
	if need := 2 * len(vlo) * t.f; need > len(scratch) {
		scratch = make([]int32, need)
	}
	run := 0
	for level := top; level >= 1; level-- {
		lv := t.view(level)
		var c int
		c, i = lv.selectStep(run, i, vlo, vhi, rlo[:len(vlo)], rhi[:len(vlo)], scratch)
		run = run*t.f + c
	}
	// Level-0 runs hold one element: the run index is the base position.
	return run, true
}
