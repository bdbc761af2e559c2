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
// in flat int32 structure-of-arrays scratch; every live query moves down
// exactly one level per kernel step.

// SelectKthRangesBatch answers len(out) select queries at once. Query q has
// the sorted, disjoint half-open value ranges (vlo[j], vhi[j]) for j in
// [off[q], off[q+1]) — at most maxSelectRanges of them — and selects the
// k[q]-th (0-based, in position order) entry whose value falls into any
// range. out[q] receives the base position, or -1 when fewer than k[q]+1
// entries qualify. Results are exactly SelectKthRanges per query.
func (t *Tree) SelectKthRangesBatch(off []int32, vlo, vhi []int64, k []int32, out []int32) {
	m := len(out)
	if len(off) != m+1 || len(k) != m || len(vlo) != len(vhi) || len(vlo) != int(off[m]) {
		//lint:invariant the collector builds offsets and flattened ranges together; a mismatch is a caller bug that would silently mis-select
		panic("mst: SelectKthRangesBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		//lint:invariant the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: SelectKthRangesBatch batch of 2³¹ or more queries")
	}
	if t.leafOnly {
		//lint:invariant selection descends by value through every level; the window operator never builds a select tree leaf-only
		panic("mst: SelectKthRangesBatch on a leaf-only tree")
	}
	if m == 0 {
		return
	}
	for q := 0; q < m; q++ {
		if nr := off[q+1] - off[q]; nr > maxSelectRanges {
			//lint:invariant frame exclusion yields at most 3 ranges (§4.7); more is a window-operator bug, and truncating would silently mis-select
			panic(fmt.Sprintf("mst: SelectKthRangesBatch got %d ranges, max %d", nr, maxSelectRanges))
		}
	}
	if t.n == 0 {
		for q := range out {
			out[q] = -1
		}
		return
	}
	nr := len(vlo)
	vb := arena.Int32s.Get(2 * nr)
	vlo32, vhi32 := vb[:nr], vb[nr:]
	for j := range vlo32 {
		vlo32[j] = clampI32(vlo[j])
		vhi32[j] = clampI32(vhi[j])
	}
	selectKernel(t.tr, off, vlo32, vhi32, k, out)
	arena.Int32s.Put(vb)
}

// selectKernel is the level-synchronous select descent. Empty value
// ranges contribute zero-width rank pairs throughout, so they need no
// special casing (SelectKthRanges drops them up front; the result is the
// same either way).
func selectKernel(t *tree, off, vlo, vhi, k, out []int32) {
	m := len(out)
	top := t.top()
	run0 := t.run(top, 0)
	nR := len(vlo)

	// Flat query state: one cascaded rank pair per flattened range (parallel
	// to vlo/vhi), plus per-query current run, remaining rank, and the live
	// list. Every live query descends all the way to level 0, so the live
	// list is fixed after the top-level resolution. The tail is selectStep's
	// rank-row scratch.
	buf := arena.Int32s.Get(2*nR + 3*m + 2*maxSelectRanges*t.f)
	rlo, rhi := buf[:nR], buf[nR:2*nR]
	runQ := buf[2*nR : 2*nR+m]
	remQ := buf[2*nR+m : 2*nR+2*m]
	lq := buf[2*nR+2*m : 2*nR+3*m]
	scratch := buf[2*nR+3*m:]

	// Top level: gallop each range bound from the previous query's rank for
	// the same range ordinal — adjacent frames shift slowly, so the seed is
	// almost always within a few elements of the answer.
	var glo, ghi [maxSelectRanges]int
	ln := 0
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
			rlo[j], rhi[j] = i32(a), i32(b)
			total += b - a
		}
		if int(k[q]) >= total {
			out[q] = -1
			continue
		}
		runQ[q] = 0
		remQ[q] = k[q]
		lq[ln] = i32(q)
		ln++
	}

	// Level-synchronous descent: per level, every live query takes one
	// selectStep (step.go) into the child holding its entry.
	for level := top; level >= 1 && ln > 0; level-- {
		lv := t.view(level)
		for li := 0; li < ln; li++ {
			q := int(lq[li])
			o0, o1 := int(off[q]), int(off[q+1])
			r := int(runQ[q])
			c, rem := lv.selectStep(r, int(remQ[q]), vlo[o0:o1], vhi[o0:o1], rlo[o0:o1], rhi[o0:o1], scratch)
			runQ[q], remQ[q] = i32(r*t.f+c), i32(rem)
		}
	}

	// Level-0 runs hold one element: the run index is the base position.
	for li := 0; li < ln; li++ {
		q := int(lq[li])
		out[q] = runQ[q]
	}
	arena.Int32s.Put(buf)
}
