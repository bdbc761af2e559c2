package mst

// maxDescentStack bounds the explicit stacks of the iterative descents.
// A tree over n < 2³¹ elements with fanout f >= 2 has at most 32 merge
// levels; a count descent keeps at most two partial runs per level alive
// (the runs containing lo and hi-1), so 2·33 frames is a hard ceiling.
const maxDescentStack = 72

// descFrame is one pending partial run of an iterative descent: the run's
// level and index, plus the exact number of its elements < threshold.
type descFrame struct {
	level, run, rank int32
}

// countBelow counts the elements at positions [lo, hi) of the base array
// whose value is strictly smaller than threshold. Callers guarantee
// 0 <= lo < hi <= n.
//
// The range is pieced together from sorted runs top-down (Figure 2): runs
// completely inside [lo, hi) contribute their rank of threshold directly;
// the at most two runs overlapping a range edge are descended into. The
// ranks inside the child runs come from countStep (step.go): exact from the
// samples and the origin stripe, so only the top-level binary search pays
// O(log n) — or, under NoCascading, searched per child (Figure 2).
//
// The descent is iterative with an explicit stack: partially overlapped
// runs are pushed and resolved when popped, so the hot query path pays no
// call overhead per level. The batched kernel (count_batch.go) falls back
// to this descent per query on a spilled forest.
func (t *tree) countBelow(lo, hi int, threshold int32) int {
	top := t.top()
	rank := lowerBoundP(t.run(top, 0), threshold)
	if lo <= 0 && hi >= t.n {
		return rank
	}
	var stack [maxDescentStack]descFrame
	stack[0] = descFrame{level: i32(top), run: 0, rank: i32(rank)}
	sp := 1
	total := 0
	for sp > 0 {
		sp--
		fr := stack[sp]
		// A partially overlapped run is never a leaf: level-0 runs hold
		// exactly one element and are either fully covered or skipped.
		level, r := int(fr.level), int(fr.run)
		lv := t.view(level)
		covered, partial := lv.countStep(r, int(fr.rank), lo, hi, threshold)
		total += covered
		for _, pc := range partial {
			if pc.rank < 0 {
				continue
			}
			if sp == len(stack) {
				//lint:invariant at most two partial runs exist per level and trees have at most 32 levels, so the stack cannot exceed 2·33 frames
				panic("mst: countBelow descent stack overflow")
			}
			stack[sp] = descFrame{level: i32(level - 1), run: i32(r*t.f + pc.child), rank: i32(pc.rank)}
			sp++
		}
	}
	return total
}
