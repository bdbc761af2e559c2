package mst

import "holistic/internal/arena"

// Batched, level-synchronous aggregate kernel over the annotated tree
// (round 2 of the count/select kernels in count_batch.go/select_batch.go).
//
// The hard part relative to counting is that an aggregate query's result is
// built by merging run-prefix aggregates in a pinned order: the covered run
// prefixes of the count decomposition (§4.3), left to right by position, and
// for floating-point aggregates that order is part of the answer. The
// level-synchronous descent meets the runs level by level instead, so the
// kernel runs in two phases:
//
//  1. descend the shared frontier exactly like countKernel, but instead of
//     adding covered-run ranks into a count it records each contribution —
//     a "take" of agg[level][runStart+rank-1] — as a compact int32 triple
//     (run start, level, aggregate index) tagged with its query;
//  2. group the takes by query (counting sort — takes already carry their
//     query tag) and order each query's takes by run start position.
//
// A take covers the position interval [runStart, runEnd) of its run and the
// takes of one query cover disjoint intervals, so ascending run start IS the
// left-to-right order, and folding the sorted takes through merge gives the
// pinned answer bit for bit. TestAggBelowBatchMatchesScalar and
// TestAggBelowBatchFloatBitIdentical check it against an independent fold of
// the same decomposition. On an int64 tree a query whose range spans at most
// LeafRows rows never enters the descent: it folds level 0 (leaf.go), or, on
// a sum tree, is answered from the narrow query before it (agg_diff.go).
//
// The descent itself shares everything countKernel shares — per-level
// geometry and sample rows loaded once per level, flat SoA frontier scratch —
// and needs no top-level search at all: in the rank domain the clipped
// threshold is its own rank in the top run (annotated.go).

// takeStride is the int32 record width of a pending take:
// (query, run start, level, aggregate index).
const takeStride = 4

// aggSubBatch is how many queries one descent carries. A query holds about
// f·levels takes of 16 + 12 bytes on top of 56 bytes of frontier, so a
// 20,000-row probe chunk in one descent works in — and leaves in the pool,
// per P — tens of megabytes it touches once; at 1,024 queries the scratch
// stays around a megabyte, inside the cache, and what a level shares across
// queries (geometry, sample rows) is long amortised.
const aggSubBatch = 1024

// AggBelowBatch answers len(result) aggregate queries at once: result[q] is
// the merged state of the entries at positions [lo[q], hi[q]) whose key is
// strictly smaller than threshold[q], in the pinned order above; ok[q] is
// false when no entry qualifies (the SQL aggregate is then NULL); and cnt[q]
// is how many qualify — the distinct count falls out of the same descent for
// free, and the DISTINCT-aggregate collectors need it for the NULL rule.
// Positions are clamped to [0, Len()]. All six slices must have the same
// length. The narrow queries are answered first, in query order
// (aggLeaves); the rest are independent, so they descend aggSubBatch queries
// at a time. It returns how many of the queries it answered at the leaves
// (leaf.go) and how many from the narrow query before them (agg_diff.go)
// instead of descending: on an int64 tree together those whose range spans
// at most LeafRows rows, on any other none; diffs only on a sum tree.
func (at *AnnotatedTree[S]) AggBelowBatch(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) (leaves, diffs int) {
	m := len(result)
	if len(lo) != m || len(hi) != m || len(threshold) != m || len(ok) != m || len(cnt) != m {
		// Invariant: the collector builds all six arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: AggBelowBatch slice length mismatch")
	}
	leaves, diffs, descend := at.aggLeaves(lo, hi, threshold, result, ok, cnt)
	for s := 0; descend && s < m; s += aggSubBatch {
		e := min(s+aggSubBatch, m)
		at.aggBelowSubBatch(lo[s:e], hi[s:e], threshold[s:e], result[s:e], ok[s:e], cnt[s:e])
	}
	return leaves, diffs
}

// aggLeaves clears ok and cnt of every query and answers each valid one
// whose range the leaf rule takes: from the query it answered before it when
// the tree is a sum tree and the difference costs fewer entries than the
// range spans (agg_diff.go), else by folding level 0. It reports how many it
// answered each way and whether a query is left for the descent.
func (at *AnnotatedTree[S]) aggLeaves(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) (leaves, diffs int, descend bool) {
	var d sumDiff
	if at.sum {
		d = sumDiff{lv0: at.t.levels[0], vals: any(at.agg[0]).([]int64), topPos: at.t.topPos, sums: any(result).([]int64), p: -1}
	}
	for q := range result {
		ok[q], cnt[q] = false, 0
		l, h, ct, valid := at.clip(int(lo[q]), int(hi[q]), threshold[q])
		switch {
		case !valid:
			continue
		case !at.leaf(h - l):
			descend = true
			continue
		case at.sum && d.answer(q, l, h, ct, cnt):
			diffs++
		default:
			result[q], ok[q], cnt[q] = at.foldLeaves(l, h, ct)
			leaves++
		}
		ok[q] = cnt[q] > 0
		d.p, d.lo, d.hi, d.ct = q, l, h, ct
	}
	return leaves, diffs, descend
}

// aggBelowSubBatch is one level-synchronous descent over at most aggSubBatch
// queries, less those aggLeaves answered.
func (at *AnnotatedTree[S]) aggBelowSubBatch(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) {
	m := len(result)
	t := at.t

	// Clamp and clip every query; those aggLeaves resolved are marked with an
	// empty position range so the descent skips them without a separate mask.
	cb := arena.Int32s.Get(2 * m)
	klo, khi := cb[:m], cb[m:]
	cthr := arena.Int32s.Get(m)
	descend := false
	for q := 0; q < m; q++ {
		klo[q], khi[q] = 0, 0
		l, h, ct, valid := at.clip(int(lo[q]), int(hi[q]), threshold[q])
		if valid && !at.leaf(h-l) {
			klo[q], khi[q] = i32(l), i32(h)
			cthr[q] = ct
			descend = true
		}
	}
	if !descend {
		arena.Int32s.Put(cthr)
		arena.Int32s.Put(cb)
		return
	}

	top := t.top()

	// Frontier scratch, exactly countKernel's shape: at most two partial
	// runs per query per level bound both frontiers.
	fbuf := arena.Int32s.Get(12 * m)
	cq, cr, crank := fbuf[:2*m], fbuf[2*m:4*m], fbuf[4*m:6*m]
	nq, nr, nrank := fbuf[6*m:8*m], fbuf[8*m:10*m], fbuf[10*m:12*m]

	// Pending takes: a growable flat record buffer plus per-query counts for
	// the counting sort of phase 2. Most queries take O(f·levels) runs, so
	// the initial capacity of four takes per query usually survives.
	takeCnt := arena.Int32s.Get(m)
	clear(takeCnt) // pooled scratch is not zeroed
	tb := arena.Int32s.Get(4 * takeStride * m)
	tn := 0

	// Top level: the top run is the identity permutation, so the clipped
	// threshold is its own rank; full-span queries resolve directly against
	// the top run's prefix aggregates.
	cn := 0
	for q := 0; q < m; q++ {
		if klo[q] >= khi[q] {
			continue
		}
		rank := int(cthr[q])
		if klo[q] <= 0 && int(khi[q]) >= t.n {
			if rank > 0 {
				result[q] = at.agg[top][rank-1]
				ok[q] = true
				cnt[q] = i32(rank)
			}
			continue
		}
		cq[cn], cr[cn], crank[cn] = i32(q), 0, i32(rank)
		cn++
	}

	// Phase 1: level-synchronous descent. One ranksStep (step.go) per
	// frontier item ranks every overlapped child; covered children with a
	// positive rank become takes, partially covered children descend.
	var ranks [maxOriginFanout]int32
	f := t.f
	for level := top; level >= 1 && cn > 0; level-- {
		lv := t.view(level)
		childLen := lv.childLen
		nn := 0
		for it := 0; it < cn; it++ {
			q := int(cq[it])
			r := int(cr[it])
			runStart, runEnd := lv.span(r)
			qlo, qhi := int(klo[q]), int(khi[q])
			cFirst := (max(qlo, runStart) - runStart) / childLen
			cLast := (min(qhi, runEnd) - 1 - runStart) / childLen
			lv.ranksStep(r, int(crank[it]), ranks[:f])
			for c := cFirst; c <= cLast; c++ {
				cs := runStart + c*childLen
				ce := min(cs+childLen, runEnd)
				cRank := int(ranks[c])
				if qlo <= cs && qhi >= ce {
					if cRank > 0 {
						cnt[q] += i32(cRank)
						if tn*takeStride == len(tb) {
							nb := arena.Int32s.Get(2 * len(tb))
							copy(nb, tb)
							arena.Int32s.Put(tb)
							tb = nb
						}
						b := tn * takeStride
						tb[b], tb[b+1], tb[b+2], tb[b+3] = i32(q), i32(cs), i32(level-1), i32(cs+cRank-1)
						tn++
						takeCnt[q]++
					}
					continue
				}
				if nn == len(nq) {
					// Invariant: a query keeps at most two partial runs per level (the runs holding lo and hi-1), so the next frontier holds at most 2·m items
					panic("mst: aggKernel frontier overflow")
				}
				nq[nn], nr[nn], nrank[nn] = i32(q), i32(r*f+c), i32(cRank)
				nn++
			}
		}
		cq, nq = nq, cq
		cr, nr = nr, cr
		crank, nrank = nrank, crank
		cn = nn
	}

	// Phase 2: counting sort by query, order each query's takes by run
	// start, fold left to right. takeCnt is turned into running cursors by
	// the prefix sum; after the scatter it holds per-query end offsets.
	if tn > 0 {
		ord := arena.Int32s.Get(3 * tn)
		sum := int32(0)
		for q := 0; q < m; q++ {
			c := takeCnt[q]
			takeCnt[q] = sum
			sum += c
		}
		for i := 0; i < tn; i++ {
			b := i * takeStride
			q := tb[b]
			p := takeCnt[q]
			takeCnt[q] = p + 1
			o := int(p) * 3
			ord[o], ord[o+1], ord[o+2] = tb[b+1], tb[b+2], tb[b+3]
		}
		start := int32(0)
		for q := 0; q < m; q++ {
			end := takeCnt[q]
			// Takes arrive nearly ordered (one level's emissions are already
			// ascending), so the stride-3 insertion sort is cheap.
			for i := start + 1; i < end; i++ {
				o := int(i) * 3
				c0, c1, c2 := ord[o], ord[o+1], ord[o+2]
				j := i - 1
				for j >= start && ord[int(j)*3] > c0 {
					jo := int(j) * 3
					ord[jo+3], ord[jo+4], ord[jo+5] = ord[jo], ord[jo+1], ord[jo+2]
					j--
				}
				jo := int(j+1) * 3
				ord[jo], ord[jo+1], ord[jo+2] = c0, c1, c2
			}
			for i := start; i < end; i++ {
				o := int(i) * 3
				part := at.agg[ord[o+1]][ord[o+2]]
				if !ok[q] {
					result[q], ok[q] = part, true
				} else {
					result[q] = at.merge(result[q], part)
				}
			}
			start = end
		}
		arena.Int32s.Put(ord)
	}

	arena.Int32s.Put(tb)
	arena.Int32s.Put(takeCnt)
	arena.Int32s.Put(fbuf)
	arena.Int32s.Put(cthr)
	arena.Int32s.Put(cb)
}
