package core

import (
	"fmt"

	"holistic/internal/frame"
	"holistic/internal/preprocess"
	"holistic/internal/segtree"
)

// evalDistributive evaluates SUM, AVG, MIN and MAX with the segment tree of
// Leis et al. (§3.2): O(n) build, O(log n) per frame, no reliance on frame
// overlap. These aggregates are the ones SQL already allows framing for;
// they are part of the operator so that mixed queries run end-to-end and so
// the segment-tree machinery exists as a competitor substrate.
func evalDistributive(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, f.Arg, opt)
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

// evalSegTree is the EngineSegmentTree dispatcher: distributive aggregates
// use the plain segment tree; rank, percentile and value functions use the
// sorted-list segment tree (base intervals), the parallelizable
// O(n (log n)²) competitor of Table 1.
func evalSegTree(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	switch f.Name {
	case CountStar, Count:
		return evalCounts(p, f, fc, out, opt)
	case Sum, Avg, Min, Max:
		return evalDistributive(p, f, fc, out, opt)
	}

	// Holistic functions on the sorted-list tree. The tree holds the kept
	// rows' function-order keys in window order: Kth(lo, hi, k) then selects
	// the k-th frame row in function order, CountBelow counts rank
	// thresholds — the same queries the merge sort tree answers, one
	// log-factor slower.
	st, fl, keysAll, sortedKept, err := buildSortedTreeState(p, f, opt)
	if err != nil {
		return err
	}
	valueCol := selectValueColumn(p, f)
	return forEachRow(p, opt, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bLo, bHi := fc.Bounds(i)
			fLo, fHi := fl.toFiltered(bLo), fl.toFiltered(bHi)
			size := fHi - fLo
			row := p.orig(i)
			switch f.Name {
			case Rank, RowNumber:
				out.setInt(row, int64(st.CountBelow(fLo, fHi, keysAll[i]))+1)
			case PercentRank:
				if size <= 1 {
					out.setFloat(row, 0)
				} else {
					out.setFloat(row, float64(st.CountBelow(fLo, fHi, keysAll[i]))/float64(size-1))
				}
			case CumeDist:
				if size == 0 {
					out.setNull(row)
				} else {
					out.setFloat(row, float64(st.CountBelow(fLo, fHi, keysAll[i]+1))/float64(size))
				}
			case Ntile:
				fj := -1
				if fl.kept(i) {
					fj = fl.toFiltered(i)
				}
				if size == 0 || fj < fLo || fj >= fHi {
					out.setNull(row)
					continue
				}
				r := int64(st.CountBelow(fLo, fHi, keysAll[i]))
				out.setInt(row, ntileBucket(r, int64(size), f.N))
			case PercentileDisc, NthValue, FirstValue, LastValue:
				if size == 0 {
					out.setNull(row)
					continue
				}
				k := selectIndexFor(f, size)
				if k < 0 || k >= size {
					out.setNull(row)
					continue
				}
				r, ok := st.Kth(fLo, fHi, k)
				if !ok {
					out.setNull(row)
					continue
				}
				out.copyFrom(valueCol, fl.orig(int(sortedKept[r])), row)
			case PercentileCont:
				if size == 0 {
					out.setNull(row)
					continue
				}
				emitPercentileCont(f, size, row, out, valueCol, func(k int) (int, bool) {
					r, ok := st.Kth(fLo, fHi, k)
					if !ok {
						return 0, false
					}
					return fl.orig(int(sortedKept[r])), true
				})
			default:
				out.setNull(row)
			}
		}
	})
}

// buildSortedTreeState prepares the shared state for holistic functions on
// the sorted-list segment tree: the filter context, per-row function-order
// keys (dense ranks, or unique row numbers where ties must break), the kept
// rows' sorted order, and the tree itself.
func buildSortedTreeState(p *partition, f *FuncSpec, opt Options) (*segtree.SortedTree, *filtered, []int64, []int32, error) {
	fl := newFiltered(p, f, selectDropColumn(p, f), opt)
	m := p.len()
	sortedAll, err := p.sortedByFuncOrder(f, opt)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	unique := f.Name != Rank && f.Name != PercentRank && f.Name != CumeDist
	var keysAll []int64
	if unique {
		keysAll = make([]int64, m)
		keptBefore := int64(0)
		for _, pos := range sortedAll {
			keysAll[pos] = keptBefore
			if fl.kept(int(pos)) {
				keptBefore++
			}
		}
	} else {
		keysAll, _ = preprocess.DenseRanks(sortedAll, p.funcEqual(f))
	}
	keysKept := make([]int64, fl.k)
	for j := range keysKept {
		keysKept[j] = keysAll[fl.local(j)]
	}
	sortedKept := preprocess.SortIndicesByKey(keysKept)
	return segtree.NewSorted(keysKept), fl, keysAll, sortedKept, nil
}

// selectDropColumn returns the column whose NULLs a selection-type function
// drops.
func selectDropColumn(p *partition, f *FuncSpec) string {
	switch f.Name {
	case PercentileDisc, PercentileCont:
		return percentileValueColumn(f)
	case NthValue, FirstValue, LastValue, Lead, Lag:
		if f.IgnoreNulls {
			return f.Arg
		}
	}
	return ""
}

// selectValueColumn returns the column a selection-type function copies its
// result from.
func selectValueColumn(p *partition, f *FuncSpec) *Column {
	switch f.Name {
	case PercentileDisc, PercentileCont:
		return p.t.Column(percentileValueColumn(f))
	case NthValue, FirstValue, LastValue, Lead, Lag:
		return p.t.Column(f.Arg)
	}
	return nil
}

// selectIndexFor maps a selection function to the 0-based index it asks for.
func selectIndexFor(f *FuncSpec, size int) int {
	switch f.Name {
	case PercentileDisc:
		return percentileDiscIndex(f.Fraction, size)
	case NthValue:
		return int(f.N) - 1
	case FirstValue:
		return 0
	case LastValue:
		return size - 1
	}
	return -1
}

// emitPercentileCont interpolates PERCENTILE_CONT from a row selector.
func emitPercentileCont(f *FuncSpec, size, row int, out *outBuilder, valueCol *Column, selectRow func(k int) (int, bool)) {
	rn := f.Fraction * float64(size-1)
	k0 := int(rn)
	frac := rn - float64(k0)
	src0, ok := selectRow(k0)
	if !ok {
		out.setNull(row)
		return
	}
	v := valueCol.Numeric(src0)
	if frac > 0 {
		if src1, ok1 := selectRow(k0 + 1); ok1 {
			v += frac * (valueCol.Numeric(src1) - v)
		}
	}
	out.setFloat(row, v)
}
