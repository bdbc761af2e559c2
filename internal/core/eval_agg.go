package core

import (
	"fmt"

	"holistic/internal/frame"
	"holistic/internal/segtree"
)

// evalDistributive evaluates SUM, AVG, MIN and MAX with the segment tree of
// Leis et al. (§3.2): O(n) build, O(log n) per frame, no reliance on frame
// overlap. These aggregates are the ones SQL already allows framing for;
// they are part of the operator so that mixed queries run end-to-end.
func evalDistributive(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, f.Arg)
	col := p.t.Column(f.Arg)
	switch f.Name {
	case Sum:
		if col.Kind() == Int64 {
			return runSegAgg(p, fc, out, opt, fl,
				func(j int) int64 { return col.Int64(fl.orig(j)) },
				func(a, b int64) int64 { return a + b },
				func(row int, v int64) { out.setInt(row, v) })
		}
		return runSegAgg(p, fc, out, opt, fl,
			func(j int) float64 { return col.Float64(fl.orig(j)) },
			func(a, b float64) float64 { return a + b },
			func(row int, v float64) { out.setFloat(row, v) })
	case Avg:
		return runSegAgg(p, fc, out, opt, fl,
			func(j int) avgState { return avgState{sum: col.Numeric(fl.orig(j)), n: 1} },
			func(a, b avgState) avgState { return avgState{a.sum + b.sum, a.n + b.n} },
			func(row int, v avgState) { out.setFloat(row, v.sum/float64(v.n)) })
	case Min, Max:
		want := -1
		if f.Name == Max {
			want = 1
		}
		switch col.Kind() {
		case Int64:
			return runSegAgg(p, fc, out, opt, fl,
				func(j int) int64 { return col.Int64(fl.orig(j)) },
				pickBy(want, func(a, b int64) int { return compareOrdered(a, b) }),
				func(row int, v int64) { out.setInt(row, v) })
		case Float64:
			return runSegAgg(p, fc, out, opt, fl,
				func(j int) float64 { return col.Float64(fl.orig(j)) },
				pickBy(want, floatCompare),
				func(row int, v float64) { out.setFloat(row, v) })
		case String:
			return runSegAgg(p, fc, out, opt, fl,
				func(j int) string { return col.StringAt(fl.orig(j)) },
				pickBy(want, func(a, b string) int { return compareOrdered(a, b) }),
				func(row int, v string) { out.strs[row] = v })
		default:
			return fmt.Errorf("min/max over %v column not supported", col.Kind())
		}
	}
	return fmt.Errorf("unhandled distributive function %v", f.Name)
}

func compareOrdered[T int64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// pickBy builds a min/max merge from a comparator (want = -1 for min, 1 for
// max).
func pickBy[T any](want int, cmp func(a, b T) int) func(a, b T) T {
	return func(a, b T) T {
		if c := cmp(b, a); (want < 0 && c < 0) || (want > 0 && c > 0) {
			return b
		}
		return a
	}
}

// runSegAgg builds a segment tree over the filtered values and merges each
// frame's ranges. Empty frames yield SQL NULL.
func runSegAgg[S any](p *partition, fc *frame.Computer, out *outBuilder, opt Options,
	fl *filtered, valueOf func(j int) S, merge func(a, b S) S, emit func(row int, v S)) error {
	values := make([]S, fl.k)
	for j := range values {
		values[j] = valueOf(j)
	}
	tree := segtree.New(values, merge)
	return forEachRow(p, opt, func(lo, hi int) {
		var scratch, mapped [3][2]int
		for i := lo; i < hi; i++ {
			ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
			row := p.orig(i)
			var acc S
			have := false
			for _, r := range ranges {
				part, ok := tree.Query(r[0], r[1])
				if !ok {
					continue
				}
				if have {
					acc = merge(acc, part)
				} else {
					acc, have = part, true
				}
			}
			if !have {
				out.setNull(row)
				continue
			}
			emit(row, acc)
		}
	})
}
