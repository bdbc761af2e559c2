package mst

// The leaf rule. Level 0 of every tree is its input in position order, so a
// query whose position range spans few rows is answered by one pass over
// those rows instead of a descent: a counting pass costs about half a
// nanosecond per row, a descent a fixed O(log n) steps however narrow the
// range (paper §6.4, Fig. 11: a per-frame scan beats the tree below frames
// of ~130 rows). The count and integer-aggregate kernels, scalar and
// batched, take the pass for ranges of at most leafRows rows; the select
// kernels always descend, and so do aggregates whose fold order is part of
// the answer (AnnotatedTree).

// LeafRows is the widest position range the count and integer-aggregate
// kernels answer from level 0. It sits well below the measured scan/descent
// crossover of every kernel at every tree size — about 500 rows for the
// int64 fold, 600 and more for the counts, from n = 2,000 up
// (BenchmarkLeafCrossover here and in rangetree; EXPERIMENTS.md "Narrow
// frames at the leaves" has the table).
const LeafRows = 128

// leafRows is the cutoff the kernels read. It is LeafRows; tests set it to 0
// to send every query through the descent.
var leafRows = LeafRows

// countLeaf returns the number of entries of a smaller than x, without a
// branch per entry. Entries and x lie in [0, math.MaxInt32], so e-x cannot
// overflow and its sign bit is e < x.
func countLeaf(a []int32, x int32) int {
	c := 0
	for _, e := range a {
		c += int(uint32(e-x) >> 31)
	}
	return c
}

// countLeaves is the leaf rule of a Tree: the entries at positions [lo, hi)
// smaller than x, counted in level 0 — of the one tree, or of the chunks of a
// spilled forest the range spans. Callers guarantee 0 <= lo < hi <= n.
func (t *Tree) countLeaves(lo, hi int, x int32) int {
	if t.chunks == nil {
		return countLeaf(t.mono.levels[0][lo:hi], x)
	}
	c := 0
	for ci := lo / t.chunkLen; ci*t.chunkLen < hi; ci++ {
		base := ci * t.chunkLen
		lv0 := t.chunks[ci].mono.levels[0]
		c += countLeaf(lv0[max(lo-base, 0):min(hi-base, len(lv0))], x)
	}
	return c
}
