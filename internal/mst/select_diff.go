package mst

// Differential select batches. A select query (ranges R_j, k) is answered at
// the base position of its k-th qualifying entry in position order. Write
// C(a) for the number of the query's qualifying entries at base positions
// below a. When the query p before q was answered at position a as its
// k_p-th entry, C_p(a) = k_p, and for q
//
//	C_q(a) = k_p + Σ_j [ #{ r ∈ [rhi_p[j], rhi_q[j]) : topPos[r] < a }
//	                   − #{ r ∈ [rlo_p[j], rlo_q[j]) : topPos[r] < a } ]
//
// exactly, with rlo/rhi the top-run ranks of the range bounds, a band with
// r1 < r0 counting negatively (count_diff.go's band): an entry at a position
// below a qualifies for q but not for p, or the other way round, exactly when
// its value lies between a pair of bounds, which are the top-run elements
// between their ranks. From C_q(a) the answer is a walk over the base
// positions (walk): forward from a to the (k_q − C_q(a))-th qualifying entry
// at or after a when C_q(a) <= k_q, backward from a to the (C_q(a) − 1 −
// k_q)-th one before a otherwise. Level 1 holds every 32-position block of
// level 0 sorted, so the walk counts a whole block with two searches per
// range and tests single entries only at its two ends.
//
// So answering q from p reads Σ_j |Δrlo_j| + |Δrhi_j| band entries, known
// from the galloped ranks before anything is read, plus the walk. selectKernel
// marks a query whose band cost is below selectBudget() and whose range count
// equals its predecessor's; the descent answers the rest, the anchors, and
// one pass in query order then resolves every marked query from its
// predecessor's final answer (resolveSelectDiffs). A walk covers at most
// selectBudget() positions; one whose answer lies farther from a descends
// through the scalar selectRanges instead, and its answer seeds the next
// query like any other. Trees without topPos never mark a query.

// pendingSelect marks, in selectKernel's out array, a query
// resolveSelectDiffs answers: -1 is an answer (fewer than k+1 entries
// qualify).
const pendingSelect int32 = -2

// selectBudgetLeaves is the differential select's budget in leaf cutoffs:
// both the band cost a marked query stays below and the positions its walk
// may cover. BenchmarkSelectKthRangesBatch's sweep of 1, 2, 4 and 8 chose 8:
// it answers 96 % of a 500-row frame's medians by a walk where 4 answers
// 86 %, and no arm is slower for it (EXPERIMENTS.md "A sliding select from
// its neighbour").
const selectBudgetLeaves = 8

// selectBudget is the differential select's budget in entries: 1,024 at the
// production cutoff, and 0 — no query marked — when the tests set leafRows to
// 0 to send every query down.
func selectBudget() int { return selectBudgetLeaves * leafRows }

// selectDiffCost is the number of band entries answering the query whose
// top-run ranks start at flat index q0 reads from the one whose ranks start at
// p0, both with nr ranges.
func selectDiffCost(rlo, rhi []int32, p0, q0, nr int) int {
	cost := 0
	for j := 0; j < nr; j++ {
		cost += absInt(int(rlo[q0+j])-int(rlo[p0+j])) + absInt(int(rhi[q0+j])-int(rhi[p0+j]))
	}
	return cost
}

// resolveSelectDiffs answers, in query order, every query selectKernel marked
// pendingSelect from the answered query before it, whose answer is final by
// then, and returns how many it answered by a walk rather than a scalar
// descent, each walk covering at most budget positions. rlo/rhi are every
// answered query's top-run ranks; queries answered -1 at the top level are
// skipped.
func (t *tree) resolveSelectDiffs(off, vlo, vhi, k, rlo, rhi, out []int32, budget int) (diffs int) {
	p := -1
	for q := range out {
		if out[q] == -1 {
			continue
		}
		if out[q] == pendingSelect {
			p0, q0, q1 := int(off[p]), int(off[q]), int(off[q+1])
			a := out[p]
			c := int(k[p])
			for j := 0; j < q1-q0; j++ {
				c += band(t.topPos, rhi[p0+j], rhi[q0+j], 0, a) - band(t.topPos, rlo[p0+j], rlo[q0+j], 0, a)
			}
			lo, hi := vlo[q0:q1], vhi[q0:q1]
			if pos := t.walk(lo, hi, int(a), c, int(k[q]), budget); pos >= 0 {
				out[q] = i32(pos)
				diffs++
			} else {
				pos, _ := selectRanges(t, lo, hi, int(k[q]))
				out[q] = i32(pos)
			}
		}
		p = q
	}
	return diffs
}

// walkBlock is the walk's block: walkBlock entries from a multiple of
// walkBlock, one level-1 run of a tree of the default fanout.
const walkBlock = DefaultFanout

// walk returns the base position of the k-th entry of level 0, in position
// order, whose value lies in one of the disjoint ranges [vlo[j], vhi[j]),
// given that c of them lie below position a, or -1 when that entry lies
// outside [a − budget, a + budget): a walk covers at most budget entries. It
// tests entries one by one up to the nearest block boundary — half the
// queries of a sliding frame are answered at a itself or next to it — then
// counts whole blocks (blockCount), and tests entry by entry only the block
// holding the answer.
func (t *tree) walk(vlo, vhi []int32, a, c, k, budget int) int {
	lv0 := t.levels[0]
	var runs []int32
	if t.f == walkBlock && len(t.levels) > 1 {
		runs = t.levels[1]
	}
	if c <= k {
		end := min(a+budget, len(lv0))
		edge := min((a+walkBlock-1)&^(walkBlock-1), end)
		pos, need := scanUp(lv0, vlo, vhi, a, edge, k-c)
		if pos >= 0 {
			return pos
		}
		i := edge
		for ; i+walkBlock <= end; i += walkBlock {
			cnt := blockCount(lv0, runs, i, vlo, vhi)
			if need < cnt {
				break
			}
			need -= cnt
		}
		pos, _ = scanUp(lv0, vlo, vhi, i, min(i+walkBlock, end), need)
		return pos
	}
	from := max(a-budget, 0)
	edge := max(a&^(walkBlock-1), from)
	pos, need := scanDown(lv0, vlo, vhi, edge, a, c-1-k)
	if pos >= 0 {
		return pos
	}
	i := edge
	for ; i-walkBlock >= from; i -= walkBlock {
		cnt := blockCount(lv0, runs, i-walkBlock, vlo, vhi)
		if need < cnt {
			break
		}
		need -= cnt
	}
	pos, _ = scanDown(lv0, vlo, vhi, max(i-walkBlock, from), i, need)
	return pos
}

// blockCount returns how many entries of the block at base positions
// [i, i+walkBlock) lie in one of the disjoint ranges [vlo[j], vhi[j]). When
// the tree's level-1 runs are the blocks (runs is level 1), a block's count
// is two branch-free searches of its sorted copy per range; otherwise it is
// a pass over level 0 per range.
func blockCount(lv0, runs []int32, i int, vlo, vhi []int32) int {
	c := 0
	if runs != nil {
		r := (*[walkBlock]int32)(runs[i : i+walkBlock])
		for j := range vlo {
			c += search32(r, vhi[j]) - search32(r, vlo[j])
		}
		return c
	}
	for j := range vlo {
		c += countWithin(lv0[i:i+walkBlock], vlo[j], vhi[j])
	}
	return c
}

// search32 is lowerBoundP over one block's sorted run without a branch on
// the data: six fixed steps, each a conditional move.
func search32(r *[walkBlock]int32, x int32) int {
	i := 0
	if r[15] < x {
		i = 16
	}
	if r[i+7] < x {
		i += 8
	}
	if r[i+3] < x {
		i += 4
	}
	if r[i+1] < x {
		i += 2
	}
	if r[i] < x {
		i++
	}
	if r[i] < x {
		i++
	}
	return i
}

// scanUp returns the position of the need-th (0-based) qualifying entry of
// lv0[from:to] in position order, or -1 and need less the qualifying entries
// it passed. The first range's test is hoisted: most queries have one.
func scanUp(lv0, vlo, vhi []int32, from, to, need int) (int, int) {
	lo, w, restLo, restHi := vlo[0], uint32(vhi[0]-vlo[0]), vlo[1:], vhi[1:]
	for i := from; i < to; i++ {
		if v := lv0[i]; uint32(v-lo) < w || inRanges(v, restLo, restHi) {
			if need == 0 {
				return i, 0
			}
			need--
		}
	}
	return -1, need
}

// scanDown is scanUp counting from the end of lv0[from:to] toward its start.
func scanDown(lv0, vlo, vhi []int32, from, to, need int) (int, int) {
	lo, w, restLo, restHi := vlo[0], uint32(vhi[0]-vlo[0]), vlo[1:], vhi[1:]
	for i := to - 1; i >= from; i-- {
		if v := lv0[i]; uint32(v-lo) < w || inRanges(v, restLo, restHi) {
			if need == 0 {
				return i, 0
			}
			need--
		}
	}
	return -1, need
}

// inRanges reports whether v lies in one of the ranges [vlo[j], vhi[j]), with
// one unsigned comparison per range.
func inRanges(v int32, vlo, vhi []int32) bool {
	for j := range vlo {
		if uint32(v-vlo[j]) < uint32(vhi[j]-vlo[j]) {
			return true
		}
	}
	return false
}
