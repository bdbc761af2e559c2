package core

import "holistic/internal/frame"

// evalSums evaluates SUM and AVG, the aggregates SQL already allows framing
// for, so that mixed queries run end-to-end: the per-lane prefix sums of
// their exact lanes (exactsum.go), O(n) to build and O(1) per frame range,
// with no reliance on frame overlap. SUM(x) and AVG(x) under one FILTER
// share one cached entry per partition, which keeps the prefix sums and not
// the lanes.
func evalSums(p *partition, f *FuncSpec, fc *frame.Computer, out *Column, opt Options) error {
	s := structureOf(f, nil)
	s.Part = p.id
	fl := newFiltered(p, f, s.Drop)
	st, err := cacheGet(opt, &s, func() (cachedPrefix, int64, error) {
		sum := newSumLanes(p.t.Column(f.Arg), fl.k, fl.orig)
		pre := make([][]int64, len(sum.lanes))
		for l, lane := range sum.lanes {
			pre[l] = make([]int64, len(lane)+1)
			for j, v := range lane {
				pre[l][j+1] = pre[l][j] + v
			}
		}
		sum.lanes = nil // set decodes lane sums; the lanes are not read again
		return cachedPrefix{sum: sum, pre: pre}, sliceBytes(pre...), nil
	})
	if err != nil {
		return err
	}
	return forEachRow(p, opt, func(lo, hi int) {
		var scratch, mapped [3][2]int
		acc := make([]int64, len(st.pre))
		for i := lo; i < hi; i++ {
			clear(acc)
			n := int64(0)
			for _, r := range fl.frameRanges(fc, i, scratch[:], mapped[:]) {
				n += int64(r[1] - r[0])
				for l, sums := range st.pre {
					acc[l] += sums[r[1]] - sums[r[0]]
				}
			}
			if n == 0 {
				out.setNull(p.orig(i))
				continue
			}
			st.sum.set(out, p.orig(i), acc, n, f.Name == Avg)
		}
	})
}
