package mst

import (
	"math"

	"holistic/internal/arena"
)

// Batched, level-synchronous count kernels. A window probe issues one count
// query per row, and adjacent rows' frames overlap almost completely, so the
// per-query costs a one-query descent would pay again and again — the O(log n)
// top-level binary search, re-deriving per-level run geometry, reloading the
// cascading sample rows — are shared across a whole chunk of queries here:
//
//   - the top-level rank is found by galloping (exponential + binary search)
//     from the previous query's rank, which is O(1) amortised when
//     consecutive thresholds move slowly (sliding frames);
//   - the descent is level-synchronous: a frontier of (query, run, rank)
//     triples kept in flat int32 structure-of-arrays scratch is advanced one
//     level at a time, so each level's run length, sample table and child
//     element slab are loaded once per level, not once per query, and the
//     frontier items touching the same run hit warm cache lines;
//   - there is no per-level function call or closure: the whole descent is
//     two nested loops over int32 arrays.
//
// A query whose range spans at most LeafRows rows never enters the descent:
// it is counted in level 0 (leaf.go). Nor does a query whose range and
// threshold rank moved by fewer than LeafRows entries in all since the query
// before it: it is that query's count plus the difference (count_diff.go).
// On the sliding form, which has no levels to descend, every other query is
// counted in level 0 too.
// Results are checked against brute force by batch_test.go,
// count_diff_test.go and FuzzCountSelect, and against core's reference
// evaluator by its batch_equiv_test.

// CountBelowBatch answers len(out) count queries at once: out[q] is the
// number of entries at positions [lo[q], hi[q]), clamped to [0, Len()], whose
// value is strictly smaller than threshold[q]. The lo, hi and threshold
// slices must have the same length as out. Queries should be in
// probe order (adjacent frames adjacent) for the galloping top-level search
// to pay off; any order is correct. It returns how many of the queries it
// answered at the leaves (leaf.go) and how many from the query before them
// (count_diff.go) instead of descending.
func (t *Tree) CountBelowBatch(lo, hi []int32, threshold []int64, out []int32) (leaves, diffs int) {
	m := len(out)
	if len(lo) != m || len(hi) != m || len(threshold) != m {
		// Invariant: the collector builds all four arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: CountBelowBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		// Invariant: the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: CountBelowBatch batch of 2³¹ or more queries")
	}
	if m == 0 {
		return 0, 0
	}
	// Clamp every query and answer all but the wide
	// ones up front; those are marked with an empty position range so the
	// kernel skips them without a separate mask.
	cb := arena.Int32s.Get(3 * m)
	klo, khi, thr := cb[:m], cb[m:2*m], cb[2*m:]
	descend := false
	for q := 0; q < m; q++ {
		l, h := max(int(lo[q]), 0), min(int(hi[q]), t.n)
		klo[q], khi[q] = 0, 0
		switch tv := threshold[q]; {
		case l >= h:
			out[q] = 0
		case tv > math.MaxInt32:
			out[q] = i32(h - l)
		case LeafRule(h-l, t.form):
			out[q] = i32(countLeaf(t.tr.levels[0][l:h], clampI32(tv)))
			leaves++
		case tv <= 0:
			out[q] = 0
		default:
			klo[q], khi[q], thr[q] = i32(l), i32(h), int32(tv)
			descend = true
		}
	}
	if descend {
		diffs = countKernel(t.tr, klo, khi, thr, out)
	}
	arena.Int32s.Put(cb)
	return leaves, diffs
}

// countKernel is the level-synchronous count descent. lo/hi are
// pre-clamped to [0, n]; queries with lo >= hi are already resolved and
// skipped. out[q] accumulates the covered-run ranks of query q. It returns
// how many queries it answered from their predecessor (count_diff.go)
// instead of descending.
func countKernel(t *tree, lo, hi, thr, out []int32) (diffs int) {
	m := len(out)
	top := t.top()
	run0 := t.run(top, 0)

	// Frontier scratch: at any level a query keeps at most two partial runs
	// alive (the runs containing lo and hi-1), so 2·m triples bound both the
	// current and the next frontier. One flat pooled buffer holds all six
	// structure-of-arrays columns, plus every query's top-run rank for the
	// differential pass.
	buf := arena.Int32s.Get(13 * m)
	cq, cr, crank := buf[:2*m], buf[2*m:4*m], buf[4*m:6*m]
	nq, nr, nrank := buf[6*m:8*m], buf[8*m:10*m], buf[10*m:12*m]
	rk := buf[12*m:]

	// Top level: one sorted run. Seed each query's binary search with the
	// previous query's rank — adjacent probe rows have nearly equal
	// thresholds, so the gallop usually terminates within a few elements;
	// the sliding form looks the rank up instead. With both ranks at hand, a
	// query close enough to the previous one is marked for the differential
	// pass instead of entering the frontier, or, on the sliding form, the
	// level-0 scan that answers every other query.
	lv0, below := t.levels[0], t.below
	cn := 0
	g := 0
	p := -1 // the query ranked before q
	for q := 0; q < m; q++ {
		if lo[q] >= hi[q] {
			continue
		}
		var rank int
		if below != nil {
			rank = int(below[min(int(thr[q]), t.n+1)])
		} else {
			rank = lowerBoundFromP(run0, thr[q], g)
		}
		rk[q] = i32(rank)
		switch {
		case lo[q] <= 0 && int(hi[q]) >= t.n:
			out[q] = i32(rank)
		case p >= 0 && t.topPos != nil && diffRule(diffCost(lo, hi, p, q, g, rank)):
			out[q] = pendingCount
			diffs++
		case below != nil:
			out[q] = i32(countLeaf(lv0[lo[q]:hi[q]], thr[q]))
		default:
			out[q] = 0
			cq[cn], cr[cn], crank[cn] = i32(q), 0, i32(rank)
			cn++
		}
		g, p = rank, q
	}

	// Descend the whole frontier one level per iteration. Per-level state
	// (run geometry, sample table, origin stripe, child element slab) is
	// hoisted out of the per-item loop; every item is one countStep. Partially
	// covered runs are never leaves: level-0 runs hold one element each, so
	// the frontier drains at level 1.
	f := t.f
	for level := top; level >= 1 && cn > 0; level-- {
		lv := t.view(level)
		nn := 0
		for it := 0; it < cn; it++ {
			q := int(cq[it])
			r := int(cr[it])
			covered, partial := lv.countStep(r, int(crank[it]), int(lo[q]), int(hi[q]), thr[q])
			out[q] += i32(covered)
			for _, pc := range partial {
				if pc.rank < 0 {
					continue
				}
				if nn == len(nq) {
					// Invariant: a query keeps at most two partial runs per level (the runs holding lo and hi-1), so the next frontier holds at most 2·m items
					panic("mst: countKernel frontier overflow")
				}
				nq[nn], nr[nn], nrank[nn] = i32(q), i32(r*f+pc.child), i32(pc.rank)
				nn++
			}
		}
		cq, nq = nq, cq
		cr, nr = nr, cr
		crank, nrank = nrank, crank
		cn = nn
	}
	if diffs > 0 {
		t.resolveDiffs(lo, hi, thr, rk, out)
	}
	arena.Int32s.Put(buf)
	return diffs
}

// lowerBoundFromP is lowerBoundP seeded with a guess g: it gallops
// exponentially from g toward the answer and binary-searches the final
// window, so the cost is O(log d) in the distance d between the guess and
// the answer instead of O(log n). With g out of [0, len(a)] the guess is
// clamped; any g is correct.
func lowerBoundFromP(a []int32, x int32, g int) int {
	n := len(a)
	if g < 0 {
		g = 0
	} else if g > n {
		g = n
	}
	if g < n && a[g] < x {
		// Answer right of g: probe g+1, g+2, g+4, … lb always satisfies
		// a[lb] < x; hi is n or satisfies a[hi] >= x.
		lb, hi := g, n
		for step := 1; ; step <<= 1 {
			j := lb + step
			if j >= n {
				break
			}
			if a[j] < x {
				lb = j
			} else {
				hi = j
				break
			}
		}
		return lb + 1 + lowerBoundP(a[lb+1:hi], x)
	}
	if g > 0 && a[g-1] >= x {
		// Answer at or left of g-1: probe g-2, g-3, g-5, … ub always
		// satisfies a[ub] >= x; lo is 0 or satisfies a[lo-1] < x.
		ub := g - 1
		lo := 0
		for step := 1; ; step <<= 1 {
			j := ub - step
			if j < 0 {
				break
			}
			if a[j] >= x {
				ub = j
			} else {
				lo = j + 1
				break
			}
		}
		return lo + lowerBoundP(a[lo:ub], x)
	}
	return g
}
