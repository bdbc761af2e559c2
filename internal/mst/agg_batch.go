package mst

import "holistic/internal/arena"

// Batched, level-synchronous aggregate kernel over the annotated tree
// (round 2 of the count/select kernels in count_batch.go/select_batch.go).
// It descends the shared frontier exactly like countKernel, but where a
// count adds a covered child's rank, it adds the child's run prefix state —
// agg[level][runStart+rank-1] — into the query's answer in place. The
// merge is associative and commutative (annotated.go), so the order the
// descent meets the covered prefixes in leaves no trace in the answer.
// TestAggBelowBatchMatchesScalar and TestAggBelowBatchFloatBitIdentical
// check it against an independent fold of the same decomposition. A query
// whose range spans at most LeafRows rows never enters the descent: it
// folds level 0 (leaf.go), or, on a sum tree, is answered from the narrow
// query before it (agg_diff.go).
//
// The descent shares everything countKernel shares — per-level geometry
// and sample rows loaded once per level, flat SoA frontier scratch — and
// needs no top-level search at all: in the rank domain the clipped
// threshold is its own rank in the top run (annotated.go).

// aggSubBatch is how many queries one descent carries: its frontier
// scratch, 48 bytes a query, stays inside the cache, and what a level
// shares across queries (geometry, sample rows) is long amortised.
const aggSubBatch = 1024

// AggBelowBatch answers len(result) aggregate queries at once: result[q] is
// the merged state of the entries at positions [lo[q], hi[q]) whose key is
// strictly smaller than threshold[q]; ok[q] is false when no entry
// qualifies (the SQL aggregate is then NULL); and cnt[q] is how many
// qualify — the distinct count falls out of the same descent for free, and
// the DISTINCT-aggregate collectors need it for the NULL rule. Positions
// are clamped to [0, Len()]. All six slices must have the same length. The
// narrow queries are answered first, in query order (aggLeaves); the rest
// are independent, so they descend aggSubBatch queries at a time. It
// returns how many it answered at the leaves (leaf.go) and how many from
// the narrow query before them (agg_diff.go), diffs only on a sum tree.
func (at *AnnotatedTree[S]) AggBelowBatch(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) (leaves, diffs int) {
	m := len(result)
	if len(lo) != m || len(hi) != m || len(threshold) != m || len(ok) != m || len(cnt) != m {
		// Invariant: the collector builds all six arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: AggBelowBatch slice length mismatch")
	}
	kb := arena.Int32s.Get(3 * m)
	defer arena.Int32s.Put(kb)
	klo, khi, cthr := kb[:m], kb[m:2*m], kb[2*m:]
	leaves, diffs, descend := at.aggLeaves(lo, hi, threshold, result, ok, cnt, klo, khi, cthr)
	for s := 0; descend && s < m; s += aggSubBatch {
		e := min(s+aggSubBatch, m)
		at.aggBelowSubBatch(klo[s:e], khi[s:e], cthr[s:e], result[s:e], ok[s:e], cnt[s:e])
	}
	return leaves, diffs
}

// aggLeaves clears ok and cnt of every query and answers each valid one
// whose range the leaf rule takes: from the query it answered before it when
// the tree is a sum tree and the difference costs fewer entries than the
// range spans (agg_diff.go), else by folding level 0. It clips the rest for
// the descent into [klo, khi) below rank cthr, leaving the range empty for
// the queries it resolved. It reports how many it answered each way and
// whether a query is left for the descent.
func (at *AnnotatedTree[S]) aggLeaves(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt, klo, khi, cthr []int32) (leaves, diffs int, descend bool) {
	var d sumDiff
	if at.sum {
		d = sumDiff{lv0: at.t.levels[0], vals: any(at.agg[0]).([]int64), topPos: at.t.topPos, sums: any(result).([]int64), p: -1}
	}
	for q := range result {
		ok[q], cnt[q], klo[q], khi[q] = false, 0, 0, 0
		l, h, ct, valid := at.clip(int(lo[q]), int(hi[q]), threshold[q])
		switch {
		case !valid:
			continue
		case !at.leaf(h - l):
			klo[q], khi[q], cthr[q], descend = i32(l), i32(h), ct, true
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
// queries, clipped by aggLeaves to [klo, khi) below rank cthr; it skips the
// empty ranges of those aggLeaves resolved.
func (at *AnnotatedTree[S]) aggBelowSubBatch(klo, khi, cthr []int32, result []S, ok []bool, cnt []int32) {
	m := len(result)
	t := at.t
	top := t.top()

	// Frontier scratch, exactly countKernel's shape: at most two partial
	// runs per query per level bound both frontiers.
	fbuf := arena.Int32s.Get(12 * m)
	cq, cr, crank := fbuf[:2*m], fbuf[2*m:4*m], fbuf[4*m:6*m]
	nq, nr, nrank := fbuf[6*m:8*m], fbuf[8*m:10*m], fbuf[10*m:12*m]

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

	// Level-synchronous descent. One ranksStep (step.go) per frontier item
	// ranks every overlapped child; covered children with a positive rank
	// add their run prefix, partially covered children descend.
	var ranks [maxOriginFanout]int32
	f := t.f
	for level := top; level >= 1 && cn > 0; level-- {
		lv := t.view(level)
		childLen := lv.childLen
		prefixes := at.agg[level-1]
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
						if part := prefixes[cs+cRank-1]; ok[q] {
							result[q] = at.merge(result[q], part)
						} else {
							result[q], ok[q] = part, true
						}
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

	arena.Int32s.Put(fbuf)
}
