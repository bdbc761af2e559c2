package core

import (
	"fmt"

	"holistic/internal/frame"
	"holistic/internal/segtree"
)

// evalDistributive evaluates SUM, AVG, MIN and MAX, the aggregates SQL
// already allows framing for, so that mixed queries run end-to-end. SUM and
// AVG take per-lane prefix sums of their exact lanes (exactsum.go), O(1) per
// frame range; MIN and MAX the segment tree of Leis et al. (§3.2), O(n)
// build and O(log n) per frame, with no reliance on frame overlap.
func evalDistributive(p *partition, f *FuncSpec, fc *frame.Computer, out *Column, opt Options) error {
	fl := newFiltered(p, f, f.Arg)
	col := p.t.Column(f.Arg)
	switch f.Name {
	case Sum, Avg:
		sl := newSumLanes(col, fl.k, fl.orig, f.Name == Avg || col.Kind() != Int64)
		pre := make([][]int64, len(sl.lanes))
		for l, lane := range sl.lanes {
			pre[l] = make([]int64, len(lane)+1)
			for j, v := range lane {
				pre[l][j+1] = pre[l][j] + v
			}
		}
		return forEachRow(p, opt, func(lo, hi int) {
			var scratch, mapped [3][2]int
			s := make([]int64, len(pre))
			for i := lo; i < hi; i++ {
				clear(s)
				n := int64(0)
				for _, r := range fl.frameRanges(fc, i, scratch[:], mapped[:]) {
					n += int64(r[1] - r[0])
					for l, sums := range pre {
						s[l] += sums[r[1]] - sums[r[0]]
					}
				}
				if n == 0 {
					out.setNull(p.orig(i))
					continue
				}
				sl.set(out, p.orig(i), s, n, f.Name == Avg)
			}
		})
	case Min, Max:
		if col.Kind() == Bool {
			return fmt.Errorf("min/max over %v column not supported", col.Kind())
		}
		// A segment tree over positions into kept, the kept values in
		// filtered order: a merge keeps the smaller value's for MIN, the
		// larger's for MAX, the left of two equal ones; -1 is none.
		want := 1
		if f.Name == Min {
			want = -1
		}
		kept, pos := newColumn(col.name, col.kind, fl.k), make([]int32, fl.k)
		for j := range pos {
			kept.copyFrom(col, fl.orig(j), j)
			pos[j] = i32(j)
		}
		pick := func(a, b int32) int32 {
			if a < 0 || kept.compareValues(int(b), int(a))*want > 0 {
				return b
			}
			return a
		}
		tree := segtree.New(pos, pick)
		return forEachRow(p, opt, func(lo, hi int) {
			var scratch, mapped [3][2]int
			for i := lo; i < hi; i++ {
				best := int32(-1)
				for _, r := range fl.frameRanges(fc, i, scratch[:], mapped[:]) {
					if part, ok := tree.Query(r[0], r[1]); ok {
						best = pick(best, part)
					}
				}
				if best < 0 {
					out.setNull(p.orig(i))
					continue
				}
				out.copyFrom(kept, int(best), p.orig(i))
			}
		})
	}
	return fmt.Errorf("unhandled distributive function %v", f.Name)
}
