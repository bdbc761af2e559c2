package mst

import "holistic/internal/arena"

// Batched, level-synchronous aggregate kernel over the annotated tree
// (round 2 of the count/select kernels in count_batch.go/select_batch.go).
// It descends the shared frontier exactly like countKernel, but where a
// count adds a covered child's rank, it adds the child's run prefix state,
// every lane's, into the query's answer in place, and a level-1 run left
// on the frontier folds level 0 (leaf.go). The merge is associative and
// commutative (annotated.go), so the order the descent meets the covered
// prefixes in leaves no trace in the answer. TestAggBelowBatchMatchesScalar
// and TestAggBelowBatchFloatBitIdentical check it against an independent
// fold of the same decomposition. A query whose range spans at most
// LeafRows rows never enters the descent: it folds level 0, or, on a sum
// tree, is answered from the narrow query before it (agg_diff.go).
//
// The descent shares everything countKernel shares — per-level geometry
// and sample rows loaded once per level, flat SoA frontier scratch — and
// needs no top-level search at all: in the rank domain the clipped
// threshold is its own rank in the top run (annotated.go).

// aggSubBatch is how many queries one descent carries: its frontier
// scratch, 48 bytes a query, stays inside the cache, and what a level
// shares across queries (geometry, sample rows) is long amortised.
const aggSubBatch = 1024

// AggBelowBatch answers m = len(lo) aggregate queries at once over a tree
// of L lanes: result[l*m+q] is lane l's merged state of the entries at
// positions [lo[q], hi[q]) whose key is strictly smaller than threshold[q];
// ok[q] is false when no entry qualifies (the SQL aggregate is then NULL,
// and the query's states are the zero state of S); and cnt[q] is how many
// qualify — the distinct count falls out of the same descent for free, and
// the DISTINCT-aggregate collectors need it for the NULL rule. Positions
// are clamped to [0, Len()]. result holds L·m states, the other five slices
// m entries each. The narrow queries are answered first, in query order
// (aggLeaves); the rest are independent, so they descend aggSubBatch
// queries at a time, every lane in one descent. It returns how many it
// answered at the leaves (leaf.go) and how many from the narrow query
// before them (agg_diff.go), diffs only on a sum tree.
func (at *AnnotatedTree[S]) AggBelowBatch(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) (leaves, diffs int) {
	m := len(lo)
	if len(hi) != m || len(threshold) != m || len(result) != len(at.lanes)*m || len(ok) != m || len(cnt) != m {
		// Invariant: the collector sizes all six arrays from one query count; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: AggBelowBatch slice length mismatch")
	}
	kb := arena.Int32s.Get(3 * m)
	defer arena.Int32s.Put(kb)
	klo, khi, cthr := kb[:m], kb[m:2*m], kb[2*m:]
	clear(result)
	d := sumDiff{m: m, p: -1}
	if at.sum {
		d.lv0, d.lanes, d.topPos, d.sums = at.t.levels[0], any(at.lanes).([][]int64), at.t.topPos, any(result).([]int64)
	}
	leaves, diffs, descend := at.aggLeaves(lo, hi, threshold, result, ok, cnt, klo, khi, cthr, &d)
	for s := 0; descend && s < m; s += aggSubBatch {
		at.aggBelowSubBatch(klo, khi, cthr, result, ok, cnt, s, min(s+aggSubBatch, m), &d)
	}
	return leaves, diffs
}

// aggLeaves clears ok and cnt of every query, whose states AggBelowBatch
// cleared, and answers each valid one whose range the leaf rule takes: on a
// sum tree, d's, from the query it answered before it when the difference
// costs fewer entries than the range spans (agg_diff.go), else by folding
// level 0 (foldLeaves). It clips the rest for the descent into [klo, khi) below rank
// cthr, leaving the range empty for the queries it resolved. It reports how
// many it answered each way and whether a query is left for the descent.
func (at *AnnotatedTree[S]) aggLeaves(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt, klo, khi, cthr []int32, d *sumDiff) (leaves, diffs int, descend bool) {
	for q := range lo {
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
			cnt[q] = at.foldLeaves(result, d, q, l, h, ct, true)
			leaves++
		}
		ok[q] = cnt[q] > 0
		d.p, d.lo, d.hi, d.ct = q, l, h, ct
	}
	return leaves, diffs, descend
}

// aggBelowSubBatch is one level-synchronous descent over queries [s, e), at
// most aggSubBatch of the batch's m, clipped by aggLeaves to [klo, khi)
// below rank cthr; it skips the empty ranges of those aggLeaves resolved.
// A sum tree, d's, of any number of lanes adds an entry's L prefix states,
// side by side at every level above 0, into the answers in place; any other
// tree, one lane that BuildAnnotated built, merges its one.
func (at *AnnotatedTree[S]) aggBelowSubBatch(klo, khi, cthr []int32, result []S, ok []bool, cnt []int32, s, e int, d *sumDiff) {
	m, w, nl, sums := len(klo), e-s, len(at.lanes), d.sums
	t := at.t

	// Frontier scratch, exactly countKernel's shape: at most two partial
	// runs per query per level bound both frontiers.
	fbuf := arena.Int32s.Get(12 * w)
	cq, cr, crank := fbuf[:2*w], fbuf[2*w:4*w], fbuf[4*w:6*w]
	nq, nr, nrank := fbuf[6*w:8*w], fbuf[8*w:10*w], fbuf[10*w:12*w]

	// Top level: the top run is the identity permutation, so the clipped
	// threshold is its own rank, and every query starts as an item of the
	// top run — run 0 of level 1 on a tree of one element, which the fold
	// at the bottom takes.
	cn := 0
	for q := s; q < e; q++ {
		if klo[q] < khi[q] {
			cq[cn], cr[cn], crank[cn] = i32(q), 0, cthr[q]
			cn++
		}
	}

	// Level-synchronous descent down to level 1's runs. One ranksStep
	// (step.go) per frontier item ranks every overlapped child; covered
	// children with a positive rank add their run prefix, partially covered
	// children descend.
	var ranks [maxOriginFanout]int32
	f := t.f
	for level := t.top(); level >= 2 && cn > 0; level-- {
		lv := t.view(level)
		childLen := lv.childLen
		prefixes := at.agg[level-1]
		var psums []int64
		if sums != nil {
			psums = any(prefixes).([]int64)
		}
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
						switch i := cs + cRank - 1; {
						case sums != nil:
							for l, v := range psums[i*nl : i*nl+nl] {
								sums[l*m+q] += v
							}
						case ok[q]:
							result[q] = at.merge(result[q], prefixes[i])
						default:
							result[q] = prefixes[i]
						}
						ok[q] = true
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

	// A level-1 run left on the frontier folds level 0 by the leaf rule:
	// its children are single entries, and an entry qualifies when its rank
	// is below the query's clipped rank.
	for it := range cn {
		q := int(cq[it])
		runStart := int(cr[it]) * f
		l, h := max(int(klo[q]), runStart), min(int(khi[q]), runStart+f)
		cnt[q] += at.foldLeaves(result, d, q, l, h, cthr[q], !ok[q])
		ok[q] = cnt[q] > 0
	}

	arena.Int32s.Put(fbuf)
}
