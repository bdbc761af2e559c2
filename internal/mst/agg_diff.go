package mst

// Differential sums. On a tree BuildSum built, write S(a, b, r) for the sum
// and the number of the level-0 entries at positions [a, b) whose rank is
// below r, a strip with a > b counting negatively. The merge is wrapping
// int64 addition, a group, so count_diff.go's identity holds for the sum as
// for the count, exactly and bit for bit:
//
//	S(lo′, hi′, r′) = S(lo, hi, r) + S(hi, hi′, r) − S(lo, lo′, r)
//	                  ± Σ { values[topPos[k]] : k between r and r′, topPos[k] ∈ [lo′, hi′) }
//
// In the rank domain a threshold's clipped rank r is its own position in the
// top run (annotated.go), so the value band reads topPos[r:r′] directly.
// Answering a query from the one before it reads |Δlo| + |Δhi| + |Δr|
// entries, folding it reads hi′ − lo′; aggLeaves takes the difference when
// it is strictly cheaper and the query before it — the last one aggLeaves
// answered, at the leaves or here — is final. Only narrow ranges are
// answered this way: a wide one descends, and the pass for those stays
// parked while no workload asks for a wide sliding sum. A ROWS frame of a
// constant offset slides both edges and its threshold lo+1 by at most one
// row per query, so every query but a batch's first costs at most three
// entries. Each lane of a sum walks the same strips and band. Trees of any
// other merge, an int64 MIN say, never take it.

// sumDiff is AggBelowBatch's state for a sum tree: level 0's ranks and
// lanes, topPos, the batch's lane-major results over m queries, and the
// query aggLeaves answered last — p, -1 before the first — with its clipped
// range and rank. On any other tree only m and p are set.
type sumDiff struct {
	lv0          []int32
	lanes        [][]int64
	sums         []int64
	topPos       []int32
	m, p, lo, hi int
	ct           int32
}

// answer answers query q, clipped to [l, h) below rank ct, from query p
// when that reads fewer entries than folding the range would, writing its
// sums and count; it reports whether it did. Of each pair of strips or
// loops over the band at most one is non-empty: the one for the direction
// it moved. Each lane repeats the walk, so a lane's loops stay those of one
// sum.
func (d *sumDiff) answer(q, l, h int, ct int32, cnt []int32) bool {
	if d.p < 0 || absInt(l-d.lo)+absInt(h-d.hi)+absInt(int(ct)-int(d.ct)) >= h-l {
		return false
	}
	r := d.ct
	for lane, vals := range d.lanes {
		// The position strips, under the old rank r.
		s1, c1 := d.masked(vals, d.hi, h, r)
		s2, c2 := d.masked(vals, h, d.hi, r)
		s3, c3 := d.masked(vals, d.lo, l, r)
		s4, c4 := d.masked(vals, l, d.lo, r)
		s, c := d.sums[lane*d.m+d.p]+s1-s2-s3+s4, cnt[d.p]+c1-c2-c3+c4
		// The value band, under the new range.
		w := uint(h - l)
		for _, p := range d.topPos[r:max(r, ct)] {
			if uint(int(p)-l) < w {
				s, c = s+vals[p], c+1
			}
		}
		for _, p := range d.topPos[ct:max(r, ct)] {
			if uint(int(p)-l) < w {
				s, c = s-vals[p], c-1
			}
		}
		d.sums[lane*d.m+q], cnt[q] = s, c
	}
	return true
}

// fold adds into query q's sums the values of the level-0 entries at
// positions [l, h) whose rank is below ct, lane by lane, and returns how
// many there are: the sum tree's leaf rule, for aggLeaves and for the
// bottom of the descent.
func (d *sumDiff) fold(q, l, h int, ct int32) (c int32) {
	for lane, vals := range d.lanes {
		var s int64
		s, c = d.masked(vals, l, h, ct)
		d.sums[lane*d.m+q] += s
	}
	return c
}

// masked returns the sum and the number of the values vals[j], j in
// [a, b), whose level-0 rank is below r, none when a >= b. A rank below r
// gives a mask of all ones (ranks lie in [0, math.MaxInt32], so the
// difference cannot overflow), which takes the value in without a branch.
func (d *sumDiff) masked(vals []int64, a, b int, r int32) (s int64, c int32) {
	for j := a; j < b; j++ {
		m := int64((d.lv0[j] - r) >> 31)
		s, c = s+vals[j]&m, c-int32(m)
	}
	return s, c
}
