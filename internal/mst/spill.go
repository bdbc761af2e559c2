package mst

import "math"

// Spill-aware tree construction ("Support Aggregate Analytic Window Function
// over Large Data by Spilling", Shi & Wang): when Options.SpillRows is set
// and the input exceeds it, the tree is built as an ordered forest of
// monolithic subtrees over consecutive chunks of the base array instead of
// one O(n log n) structure. Each subtree is built (and can be spooled or
// cached) independently — the shape a segmented, larger-than-memory dataset
// produces naturally, one subtree per on-disk segment's worth of rows.
//
// Queries decompose over the chunks: a position range [lo, hi) overlaps at
// most two chunks partially and covers the rest whole, and a whole chunk
// answers CountBelow with one rank search on its own top run. The one query
// shape that would degrade linearly in the chunk count — a full-span count,
// the dominant case for UNBOUNDED PRECEDING frames — is answered by a fully
// merged top run built lazily on first use, reusing the loser-tree merge and
// its pooled scratch from build.go. Until a full-span query arrives, the
// merged run costs nothing.
//
// Exactness: every primitive is integer counting/selection over the same
// key multiset, so chunked answers are byte-identical to the monolithic
// tree's (enforced by spill_test.go and core's equivalence harness). The
// annotated tree (SUM/AVG DISTINCT) is deliberately not chunked: its float
// prefix aggregates depend on merge order, and re-associating them would
// break the byte-identity contract.

// buildChunked constructs the spill forest: one monolithic subtree per
// SpillRows-sized chunk of base, the narrowed keys. Build has already
// validated opt, the element limit and the payload domain.
func buildChunked(base []int32, opt Options) *Tree {
	n := len(base)
	cl := opt.SpillRows
	sub := opt
	sub.SpillRows = 0
	t := &Tree{n: n, opt: opt.stored(), chunkLen: cl, chunks: make([]*Tree, (n+cl-1)/cl)}
	for i := range t.chunks {
		lo := i * cl
		hi := min(lo+cl, n)
		t.chunks[i] = &Tree{n: hi - lo, opt: sub.stored(), mono: buildTree(base[lo:hi:hi], sub)}
	}
	return t
}

// ChunkCount reports the number of subtrees of a spill-chunked tree (0 for a
// monolithic tree). Exposed for tests and cache accounting.
func (t *Tree) ChunkCount() int { return len(t.chunks) }

// chunkedCountBelow decomposes a count over the chunk forest. Callers
// guarantee 0 <= lo < hi <= n. Chunks fully inside [lo, hi) contribute the
// rank of threshold on their own top run (one binary search each); the at
// most two partially covered edge chunks descend normally. A full-span query
// short-circuits to one rank search on the lazily merged top run.
func (t *Tree) chunkedCountBelow(lo, hi int, threshold int64) int {
	if lo <= 0 && hi >= t.n {
		return t.topRank(threshold)
	}
	total := 0
	for ci := lo / t.chunkLen; ci < len(t.chunks); ci++ {
		base := ci * t.chunkLen
		if base >= hi {
			break
		}
		c := t.chunks[ci]
		cLo := lo - base
		if cLo < 0 {
			cLo = 0
		}
		cHi := hi - base
		if cHi > c.n {
			cHi = c.n
		}
		total += c.CountBelow(cLo, cHi, threshold)
	}
	return total
}

// chunkedSelectKthRanges walks chunks in position order, counting the
// qualifying entries per chunk on its own top runs, and descends into the
// chunk that straddles rank i. The returned position is rebased to the full
// array.
func (t *Tree) chunkedSelectKthRanges(ranges [][2]int64, i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	for ci, c := range t.chunks {
		cnt := c.CountRanges(0, c.n, ranges)
		if i < cnt {
			pos, ok := c.SelectKthRanges(ranges, i)
			if !ok {
				return 0, false
			}
			return ci*t.chunkLen + pos, true
		}
		i -= cnt
	}
	return 0, false
}

// topRank returns the number of keys < threshold across the whole tree using
// the merged top run.
func (t *Tree) topRank(threshold int64) int {
	t.topOnce.Do(t.mergeTop)
	if threshold <= 0 {
		return 0
	}
	if threshold > math.MaxInt32 {
		return t.n
	}
	return lowerBoundP(t.mergedTop, int32(threshold))
}

// mergeTop builds the fully sorted top run over all chunks: the chunk top
// runs, concatenated, are the sorted children of length chunkLen (the last
// may be short) that mergePiece's tournament loser tree expects, merged with
// the same pooled scratch as tree construction. Guarded by topOnce: the
// merge runs at most once per tree, on the first full-span query.
func (t *Tree) mergeTop() {
	m := len(t.chunks)
	base := make([]int32, 0, t.n)
	for _, c := range t.chunks {
		base = append(base, c.mono.run(c.mono.top(), 0)...)
	}
	out := make([]int32, t.n)
	buf, vals := mergeScratch(m)
	// A throwaway geometry carrier: mergePiece only reads f (slot strides)
	// and, with sampleRun and origin nil, never touches k or the level arrays.
	tmp := &tree{n: t.n, f: m, k: 1}
	tmp.mergePiece(out, base, t.chunkLen, m, nil, buf, vals, nil, nil, 0, t.n)
	putMergeScratch(buf, vals)
	t.mergedTop = out
}
