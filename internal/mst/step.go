package mst

// The step: the one routine every batched kernel — count, select and
// aggregate — uses to take a run one level down.
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
// k bytes instead of a binary search per child. The step has two forms:
//
//   - the count form (countStep). A frame [lo, hi) overlaps a contiguous
//     range of children of which only the first and the last can be partially
//     covered, so three counters over the origin segment yield everything a
//     count descent needs: the first child's rank, the last child's rank and
//     the total of the covered children in between, whose sample entries are
//     summed from the contiguous sample row;
//   - the all-children form (ranksStep): the sample row plus a histogram of
//     the origin segment is the rank of every child at once. Differenced
//     between the two bounds of a value range it is the per-child count of
//     qualifying elements the select descent walks (selectStep, §4.5), and
//     the aggregate descents index each covered child's prefix aggregates
//     with it (§4.3).
//
// A tree is in one of two states: striped (cascading; samples and origins
// present, every rank exact) or NoCascading (neither; Figure 2's full binary
// search per child, written once, in ranksStep).

// levelView is the per-level state of the step: the geometry of one merge
// level and its stripes. The kernels hoist it once per level.
type levelView struct {
	n, f, k          int
	runLen, childLen int
	kids             []int32 // levels[level-1]
	samples          []int32 // samples[level]; nil without cascading
	stride           int
	origin           []uint8 // origin[level]; nil without cascading
}

// view returns the step state of a merge level (level >= 1).
func (t *tree) view(level int) levelView {
	return levelView{
		n: t.n, f: t.f, k: t.k,
		runLen:   t.effLen[level],
		childLen: t.effLen[level-1],
		kids:     t.levels[level-1],
		samples:  t.samples[level],
		stride:   t.stride[level],
		origin:   t.origin[level],
	}
}

// span returns the base positions [start, end) run r of the level covers;
// only the last run of a level can be shorter than runLen.
func (v *levelView) span(r int) (start, end int) {
	start = r * v.runLen
	return start, min(start+v.runLen, v.n)
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
func (v *levelView) countStep(r, rank, lo, hi int, x int32) (covered int, partial [2]partialChild) {
	partial[0].rank, partial[1].rank = -1, -1
	runStart, runEnd := v.span(r)
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
		rFirst, rLast, covered = v.searchCounts(r, cFirst, cLast, x)
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

// searchCounts is countStep's three quantities on a NoCascading tree: the
// searched ranks of children cFirst..cLast, split the way the stripes
// deliver them. Kept apart so the striped step carries no rank buffer.
func (v *levelView) searchCounts(r, cFirst, cLast int, x int32) (rFirst, rLast, mid int) {
	var ranks [maxOriginFanout]int32
	v.ranksStep(r, 0, x, cFirst, cLast, ranks[:])
	for _, s := range ranks[cFirst+1 : max(cLast, cFirst+1)] {
		mid += int(s)
	}
	return int(ranks[cFirst]), int(ranks[cLast]), mid
}

// ranksStep is the all-children form of the step: given rank, the exact
// number of elements of run r smaller than x, it sets out[c] to the exact
// number of elements of child c smaller than x for every child c in
// [cFrom, cTo]; other entries of out, which must hold at least f entries,
// are unspecified. A striped tree delivers every child at once and ignores the
// child range; a NoCascading tree searches just the children asked for.
func (v *levelView) ranksStep(r, rank int, x int32, cFrom, cTo int, out []int32) {
	runStart, runEnd := v.span(r)
	if v.origin == nil {
		for c := cFrom; c <= cTo; c++ {
			cs := runStart + c*v.childLen
			out[c] = i32(lowerBoundP(v.kids[cs:min(cs+v.childLen, runEnd)], x))
		}
		return
	}
	q := rank / v.k
	copy(out, v.samples[r*v.stride+q*v.f:][:v.f])
	for _, o := range v.origin[runStart+q*v.k : runStart+rank] {
		out[o]++
	}
}

// selectStep takes one select query one level down (Figure 7): run r holds
// the i-th entry, in position order, whose value falls into any of the
// disjoint ranges [vlo[j], vhi[j]), and rlo[j], rhi[j] are the run's exact
// ranks of the range bounds. Per range two ranksSteps, differenced, are the
// number of qualifying elements of every child; a prefix walk over those
// counts finds the child holding the entry. selectStep returns that child
// and the entry's index among the child's qualifying elements, and replaces
// rlo/rhi by the child's ranks. scratch holds a lower-bound and an upper-bound
// rank row per range, 2·len(vlo)·f entries.
func (v *levelView) selectStep(r, i int, vlo, vhi, rlo, rhi, scratch []int32) (child, rem int) {
	runStart, runEnd := v.span(r)
	m := (runEnd - runStart + v.childLen - 1) / v.childLen
	f := v.f
	for j := range vlo {
		v.ranksStep(r, int(rlo[j]), vlo[j], 0, m-1, scratch[2*j*f:][:f])
		v.ranksStep(r, int(rhi[j]), vhi[j], 0, m-1, scratch[(2*j+1)*f:][:f])
	}
	for c := 0; c < m; c++ {
		cnt := 0
		for j := range vlo {
			cnt += int(scratch[(2*j+1)*f+c] - scratch[2*j*f+c])
		}
		if i < cnt {
			for j := range vlo {
				rlo[j], rhi[j] = scratch[2*j*f+c], scratch[(2*j+1)*f+c]
			}
			return c, i
		}
		i -= cnt
	}
	//lint:invariant the caller verified i < total qualifying entries at the root and every step preserves it, so some child run must contain the i-th element; losing it means corrupted cascade samples
	panic("mst: select descent lost element")
}
