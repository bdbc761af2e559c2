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
// entries. Each lane of a sum (Lane) takes it on its own. Trees of any
// other merge, an int64 MIN say, never take it.

// sumDiff is aggLeaves' state for a sum tree: level 0's ranks and values,
// topPos, the batch's results, and the query answered last — p, -1 before
// the first — with its clipped range and rank.
type sumDiff struct {
	lv0        []int32
	vals, sums []int64
	topPos     []int32
	p, lo, hi  int
	ct         int32
}

// answer answers query q, clipped to [l, h) below rank ct, from query p
// when that reads fewer entries than folding the range would, writing its
// sum and count; it reports whether it did. Of each pair of loops over a
// strip or the band at most one runs: the one for the direction it moved.
func (d *sumDiff) answer(q, l, h int, ct int32, cnt []int32) bool {
	if d.p < 0 || absInt(l-d.lo)+absInt(h-d.hi)+absInt(int(ct)-int(d.ct)) >= h-l {
		return false
	}
	s, c := d.sums[d.p], int(cnt[d.p])
	lv0, vals, r := d.lv0, d.vals, d.ct
	// The position strips, under the old rank r: a rank below r gives a
	// mask of all ones (ranks lie in [0, math.MaxInt32], so e-r cannot
	// overflow), which takes the value in without a branch.
	for j := d.hi; j < h; j++ {
		m := int64((lv0[j] - r) >> 31)
		s, c = s+vals[j]&m, c-int(m)
	}
	for j := h; j < d.hi; j++ {
		m := int64((lv0[j] - r) >> 31)
		s, c = s-vals[j]&m, c+int(m)
	}
	for j := d.lo; j < l; j++ {
		m := int64((lv0[j] - r) >> 31)
		s, c = s-vals[j]&m, c+int(m)
	}
	for j := l; j < d.lo; j++ {
		m := int64((lv0[j] - r) >> 31)
		s, c = s+vals[j]&m, c-int(m)
	}
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
	d.sums[q], cnt[q] = s, i32(c)
	return true
}
