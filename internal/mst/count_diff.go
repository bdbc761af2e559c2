package mst

// Differential count batches. Write R(a, b, x) for the number of level-0
// entries at positions [a, b) smaller than x, a strip with a > b counting
// negatively. For any two queries (lo, hi, x) and (lo′, hi′, x′)
//
//	R(lo′, hi′, x′) = R(lo, hi, x) + R(hi, hi′, x) − R(lo, lo′, x)
//	                  ± #{ p between rank(x) and rank(x′) : topPos[p] ∈ [lo′, hi′) }
//
// exactly: the two strips move the position edges under the old threshold,
// counted over level 0 (countLeaf), and the last term — the value band, the
// entries whose key lies between the two thresholds, signed like x′ − x —
// moves the threshold under the new edges. rank(x) is the threshold's rank in
// the top run, which countKernel gallops for every query anyway, and topPos
// names the base position of every top-run element.
//
// So the cost of answering a query from the query ranked before it is
// |Δlo| + |Δhi| + |Δrank| entries read, known before anything is read. When
// it is below the leaf cutoff (diffRule) the kernel marks the query instead
// of descending; the descent answers the rest, the anchors, and one pass in
// query order then resolves every marked query from its predecessor's final
// count (resolveDiffs). A sliding COUNT(DISTINCT) frame moves both edges by a
// row and its threshold lo+1 past at most one key, so all but a batch's first
// query become differential; RANK thresholds that jump between rows stay
// anchors. Trees without topPos — keys above n, leaf-only and annotated
// trees — never mark a query.
//
// The sliding form (Sliding) keeps nothing a descent reads: it looks each
// threshold's rank up in below instead of galloping, and counts an anchor by
// scanning level 0. That is correct for any batch, and cheap where the
// caller has proved that few queries are anchors — a constant-offset ROWS
// COUNT(DISTINCT), whose frames slide by at most one row per query
// (DESIGN.md §10.1).

// pendingCount marks, in the kernel's out array, a query resolveDiffs
// answers: counts are never negative.
const pendingCount int32 = -1

// topPositions returns the stable argsort of base — topPos, the base
// position of every element of the top run in merge order — or nil when a
// key exceeds len(base), where the counting pass would not be linear. cnt
// holds len(base)+3 zeroed entries; on success cnt[x] is then the number of
// keys smaller than x for x in [0, len(base)+1], the sliding form's below.
func topPositions(base, cnt []int32) []int32 {
	if keyStarts(base, cnt) >= 0 {
		return nil
	}
	pos := make([]int32, len(base))
	placeRanks(base, cnt, nil, pos)
	return pos
}

// diffRule reports whether a query whose differential answer reads cost
// entries takes it instead of a descent: strictly below the leaf cutoff, so
// a cutoff of 0 sends every query down, as it does for the leaf rule.
func diffRule(cost int) bool { return cost < leafRows }

// diffCost is the number of entries answering query q from query p reads:
// the two position strips and the value band between their top-run ranks.
func diffCost(lo, hi []int32, p, q int, rankP, rankQ int) int {
	return absInt(int(lo[q])-int(lo[p])) + absInt(int(hi[q])-int(hi[p])) + absInt(rankQ-rankP)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// resolveDiffs answers, in query order, every query countKernel marked
// pendingCount from the query it ranked before it, whose count is final by
// then: an anchor's from the descent, an earlier marked query's from this
// pass. rk holds every ranked query's top-run rank; queries with lo >= hi
// were never ranked and are skipped.
func (t *tree) resolveDiffs(lo, hi, thr, rk, out []int32) {
	lv0 := t.levels[0]
	p := -1
	for q := range out {
		if lo[q] >= hi[q] {
			continue
		}
		if out[q] == pendingCount {
			c := int(out[p]) +
				strip(lv0, hi[p], hi[q], thr[p]) - strip(lv0, lo[p], lo[q], thr[p]) +
				band(t.topPos, rk[p], rk[q], lo[q], hi[q])
			out[q] = i32(c)
		}
		p = q
	}
}

// strip is R(a, b, x): the level-0 entries at positions [a, b) smaller than
// x, negated when b < a.
func strip(lv0 []int32, a, b, x int32) int {
	if a <= b {
		return countLeaf(lv0[a:b], x)
	}
	return -countLeaf(lv0[b:a], x)
}

// band is the value band between top-run ranks r0 and r1: how many of the
// top run's elements at [r0, r1) lie at a base position in [lo, hi), negated
// when r1 < r0 (the elements at [r1, r0)).
func band(topPos []int32, r0, r1, lo, hi int32) int {
	if r0 <= r1 {
		return countWithin(topPos[r0:r1], lo, hi)
	}
	return -countWithin(topPos[r1:r0], lo, hi)
}

// countWithin returns how many of pos lie in [lo, hi), lo <= hi, with one
// unsigned comparison per entry.
func countWithin(pos []int32, lo, hi int32) int {
	w := uint32(hi - lo)
	c := 0
	for _, p := range pos {
		if uint32(p-lo) < w {
			c++
		}
	}
	return c
}
