package mst

// The count step: the one routine both count descents — scalar countBelow
// (count.go) and the batched countKernel (count_batch.go) — use to take a
// partially covered run one level down.
//
// A run is sorted and its merge is stable, so the elements of child c that
// are smaller than a threshold x are exactly the outputs before the run's
// own rank of x that were taken from c. The samples hold, for every k-th
// output, how many elements each child had contributed so far, and the
// origin stripe names the child of every single output, so
//
//	rank_c(x) = samples[⌊rank/k⌋][c] + #{ p in [⌊rank/k⌋·k, rank) : origin[p] = c }
//
// — exact, independent of x, and found by one contiguous scan of fewer than
// k bytes instead of a binary search per child. A frame [lo, hi) overlaps a
// contiguous range of children of which only the first and the last can be
// partially covered, so one pass over the origin segment yields everything
// the descent needs: the first child's count, the last child's count and the
// total of the covered children in between, whose sample entries are summed
// from the contiguous sample row.
//
// Trees without a stripe (NoCascading, f > maxOriginFanout) resolve the same
// three quantities with childRankIn's windowed search per child.

// levelView is the per-level state of the count step: the geometry of one
// merge level and its stripes. The batched kernel hoists it once per level;
// the scalar descent derives it per visited run.
type levelView[P payload] struct {
	n, f, k          int
	runLen, childLen int
	kids             []P     // levels[level-1]
	samples          []int32 // samples[level]; nil without cascading
	stride           int
	origin           []uint8 // origin[level]; nil without a stripe
}

// view returns the count-step state of a merge level (level >= 1).
func (t *tree[P]) view(level int) levelView[P] {
	return levelView[P]{
		n: t.n, f: t.f, k: t.k,
		runLen:   t.effLen[level],
		childLen: t.effLen[level-1],
		kids:     t.levels[level-1],
		samples:  t.samples[level],
		stride:   t.stride[level],
		origin:   t.origin[level],
	}
}

// partialChild is a partially covered child run a count step hands to the
// next level down: its index within the parent run and the exact number of
// its elements smaller than the threshold. rank < 0 marks an unused slot.
type partialChild struct{ child, rank int }

// countStep resolves run r of the level, which the query range [lo, hi)
// overlaps without covering, given rank, the exact number of its elements
// smaller than x. It returns the number of elements smaller than x in the
// children [lo, hi) covers completely, and the at most two partially covered
// children — only the first and the last overlapped child can be partial —
// for the caller to descend into.
func (v *levelView[P]) countStep(r, rank, lo, hi int, x P) (covered int, partial [2]partialChild) {
	partial[0].rank, partial[1].rank = -1, -1
	runStart := r * v.runLen
	runEnd := min(runStart+v.runLen, v.n)
	from, to := max(lo, runStart), min(hi, runEnd)
	if v.childLen == 1 {
		// Level 1: every child is one base element, covered or not at all,
		// so the overlapped elements are counted where they lie.
		for _, e := range v.kids[from:to] {
			if e < x {
				covered++
			}
		}
		return covered, partial
	}
	cFirst := (from - runStart) / v.childLen
	cLast := (to - 1 - runStart) / v.childLen
	var rFirst, rLast int
	if v.origin != nil {
		q := rank / v.k
		nFirst, nLast, nMid := originCounts(v.origin[runStart+q*v.k:runStart+rank], cFirst, cLast)
		row := v.samples[r*v.stride+q*v.f:]
		rFirst = int(row[cFirst]) + nFirst
		rLast = int(row[cLast]) + nLast
		covered = nMid
		if cLast > cFirst {
			for _, s := range row[cFirst+1 : cLast] {
				covered += int(s)
			}
		}
	} else {
		rFirst = v.searchRank(r, rank, cFirst, runStart, runEnd, x)
		if cLast > cFirst {
			rLast = v.searchRank(r, rank, cLast, runStart, runEnd, x)
		}
		for c := cFirst + 1; c < cLast; c++ {
			covered += v.searchRank(r, rank, c, runStart, runEnd, x)
		}
	}
	if from == runStart+cFirst*v.childLen && to >= min(from+v.childLen, runEnd) {
		covered += rFirst
	} else {
		partial[0] = partialChild{cFirst, rFirst}
	}
	if cLast > cFirst {
		if to == min(runStart+(cLast+1)*v.childLen, runEnd) {
			covered += rLast
		} else {
			partial[1] = partialChild{cLast, rLast}
		}
	}
	return covered, partial
}

// originCounts scans one origin segment and returns how many of its entries
// name child cFirst, how many name child cLast, and how many name a child
// strictly between the two. The three tests are independent so they compile
// to conditional moves: origin bytes are as good as random to a predictor.
func originCounts(seg []uint8, cFirst, cLast int) (nFirst, nLast, nMid int) {
	width := uint(max(cLast-cFirst-1, 0))
	for _, o := range seg {
		c := int(o)
		if c == cFirst {
			nFirst++
		}
		if c == cLast {
			nLast++
		}
		if uint(c-cFirst-1) < width {
			nMid++
		}
	}
	return nFirst, nLast, nMid
}

// searchRank is the stripe-less child rank: childRankIn on child c of run r.
func (v *levelView[P]) searchRank(r, rank, c, runStart, runEnd int, x P) int {
	cs := runStart + c*v.childLen
	ce := min(cs+v.childLen, runEnd)
	return childRankIn(v.samples, v.stride, r, rank, c, v.f, v.k, v.kids[cs:ce], x)
}
