package mst

import (
	"fmt"
	"math"

	"holistic/internal/arena"
)

// Batched, level-synchronous select kernel: the Figure 7 descent run over a
// whole chunk of queries at once. Selection descends a single root-to-leaf
// path per query (unlike counting there is no frontier growth), so the
// batched win is in the shared per-level state and the galloped top-level
// rank searches: adjacent probe rows carry nearly identical value ranges, so
// each range bound's top rank is found by galloping from the previous
// query's rank instead of a full O(log n) binary search. Query state lives
// in flat int32 structure-of-arrays scratch; every descending query moves
// down exactly one level per kernel step.
//
// Most queries of a sliding frame never descend: a query whose ranges moved
// by few top-run ranks since the query before it is answered from that
// query's answer by a walk over level 0 (select_diff.go).

// maxSelectRanges bounds the number of value ranges a select query carries.
// Frame exclusion splits a frame into at most three continuous ranges
// (§4.7), so three is all the window operator ever needs.
const maxSelectRanges = 4

// SelectKthRangesBatch answers len(out) select queries at once. Query q has
// the sorted, disjoint half-open value ranges (vlo[j], vhi[j]) for j in
// [off[q], off[q+1]) — at most maxSelectRanges of them — and selects the
// k[q]-th (0-based, in position order) entry whose value falls into any
// range. out[q] receives the base position, or -1 when k[q] < 0 or fewer
// than k[q]+1 entries qualify. Queries should be in probe order (adjacent
// frames adjacent) for the galloping top-level search and the differential
// pass to pay off; any order is correct. It returns how many of the queries
// it answered from the query before them (select_diff.go) instead of
// descending.
func (t *Tree) SelectKthRangesBatch(off []int32, vlo, vhi []int64, k []int32, out []int32) (diffs int) {
	m := len(out)
	if len(off) != m+1 || len(k) != m || len(vlo) != len(vhi) || len(vlo) != int(off[m]) {
		// Invariant: the collector builds offsets and flattened ranges together; a mismatch is a caller bug that would silently mis-select
		panic("mst: SelectKthRangesBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		// Invariant: the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: SelectKthRangesBatch batch of 2³¹ or more queries")
	}
	if t.form != Full {
		// Invariant: selection descends by value through every level; the window operator builds every select tree in full
		panic("mst: SelectKthRangesBatch on a " + t.form.String() + " tree")
	}
	if m == 0 {
		return 0
	}
	for q := 0; q < m; q++ {
		if nr := off[q+1] - off[q]; nr > maxSelectRanges {
			// Invariant: frame exclusion yields at most 3 ranges (§4.7); more is a window-operator bug, and truncating would silently mis-select
			panic(fmt.Sprintf("mst: SelectKthRangesBatch got %d ranges, max %d", nr, maxSelectRanges))
		}
	}
	if t.n == 0 {
		for q := range out {
			out[q] = -1
		}
		return 0
	}
	nr := len(vlo)
	vb := arena.Int32s.Get(2 * nr)
	vlo32, vhi32 := vb[:nr], vb[nr:]
	for j := range vlo32 {
		// An inverted range is empty.
		vlo32[j] = clampI32(vlo[j])
		vhi32[j] = max(clampI32(vhi[j]), vlo32[j])
	}
	diffs = selectKernel(t.tr, off, vlo32, vhi32, k, out)
	arena.Int32s.Put(vb)
	return diffs
}

// selectKernel is the level-synchronous select descent. Empty value
// ranges contribute zero-width rank pairs throughout, so they need no
// special casing. It returns how many queries it answered from their
// predecessor (select_diff.go) instead of descending.
func selectKernel(t *tree, off, vlo, vhi, k, out []int32) (diffs int) {
	m := len(out)
	top := t.top()
	run0 := t.run(top, 0)
	nR := len(vlo)

	// Flat query state: one cascaded rank pair per flattened range (parallel
	// to vlo/vhi) the descent narrows level by level, the top-run rank pairs
	// the differential pass reads, plus per-query remaining rank and the live
	// list of anchors. An anchor's current run lives in its out entry. Every
	// anchor descends all the way to level 0, so the live list is fixed after
	// the top-level resolution. The tail is selectStep's rank-row scratch.
	buf := arena.Int32s.Get(4*nR + 2*m + 2*maxSelectRanges*t.f)
	rlo, rhi := buf[:nR], buf[nR:2*nR]
	tlo, thi := buf[2*nR:3*nR], buf[3*nR:4*nR]
	remQ := buf[4*nR : 4*nR+m]
	lq := buf[4*nR+m : 4*nR+2*m]
	scratch := buf[4*nR+2*m:]

	// Top level: gallop each range bound from the previous query's rank for
	// the same range ordinal — adjacent frames shift slowly, so the seed is
	// almost always within a few elements of the answer. With the ranks at
	// hand, a query close enough to the answered query before it, p, is
	// marked for the differential pass instead of joining the descent.
	var glo, ghi [maxSelectRanges]int
	budget := 0
	if t.topPos != nil {
		budget = selectBudget()
	}
	ln, marked, p := 0, 0, -1
	for q := 0; q < m; q++ {
		o0, o1 := int(off[q]), int(off[q+1])
		if o0 == o1 || k[q] < 0 {
			out[q] = -1
			continue
		}
		total := 0
		for j := o0; j < o1; j++ {
			ord := j - o0
			a := lowerBoundFromP(run0, vlo[j], glo[ord])
			b := lowerBoundFromP(run0, vhi[j], ghi[ord])
			glo[ord], ghi[ord] = a, b
			tlo[j], thi[j] = i32(a), i32(b)
			total += b - a
		}
		if int(k[q]) >= total {
			out[q] = -1
			continue
		}
		if p >= 0 && o1-o0 == int(off[p+1]-off[p]) && selectDiffCost(tlo, thi, int(off[p]), o0, o1-o0) < budget {
			out[q] = pendingSelect
			marked++
		} else {
			copy(rlo[o0:o1], tlo[o0:o1])
			copy(rhi[o0:o1], thi[o0:o1])
			out[q] = 0 // the top run
			remQ[q] = k[q]
			lq[ln] = i32(q)
			ln++
		}
		p = q
	}

	// Level-synchronous descent: per level, every anchor takes one selectStep
	// (step.go) into the child holding its entry.
	for level := top; level >= 1 && ln > 0; level-- {
		lv := t.view(level)
		for li := 0; li < ln; li++ {
			q := int(lq[li])
			o0, o1 := int(off[q]), int(off[q+1])
			r := int(out[q])
			c, rem := lv.selectStep(r, int(remQ[q]), vlo[o0:o1], vhi[o0:o1], rlo[o0:o1], rhi[o0:o1], scratch)
			out[q], remQ[q] = i32(r*t.f+c), i32(rem)
		}
	}

	// Level-0 runs hold one element: an anchor's run index is its base
	// position, its answer.
	if marked > 0 {
		diffs = t.resolveSelectDiffs(off, vlo, vhi, k, tlo, thi, rlo, rhi, scratch, out, budget)
	}
	arena.Int32s.Put(buf)
	return diffs
}
