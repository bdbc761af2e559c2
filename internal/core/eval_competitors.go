package core

import (
	"fmt"

	"holistic/internal/frame"
	"holistic/internal/incremental"
	"holistic/internal/ostree"
	"holistic/internal/preprocess"
)

// evalCompetitor dispatches the naive, incremental (Wesley & Xu) and
// order-statistic-tree engines (§5.5). These engines process rows in
// 20 000-tuple tasks like everything else; each task rebuilds its
// aggregation state from its first frame, which is exactly the
// task-parallelism penalty §3.2 describes and Figures 10-12 measure.
// Validation has already rejected frame exclusion for these engines, so
// frames are single continuous ranges.
func evalCompetitor(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	switch f.Name {
	case CountStar, Count:
		return evalCounts(p, f, fc, out, opt)
	case CountDistinct:
		return evalCompetitorDistinctCount(p, f, fc, out, opt)
	case SumDistinct, AvgDistinct, Sum, Avg, Min, Max, DenseRank:
		return evalNaiveScan(p, f, fc, out, opt)
	case Rank, PercentRank, RowNumber, CumeDist, Ntile:
		return evalCompetitorRank(p, f, fc, out, opt)
	case PercentileDisc, PercentileCont, NthValue, FirstValue, LastValue:
		return evalCompetitorSelect(p, f, fc, out, opt)
	case Lead, Lag:
		return evalNaiveLeadLag(p, f, fc, out, opt)
	}
	return fmt.Errorf("engine %v cannot evaluate %v", f.Engine, f.Name)
}

// denseArgKeys returns dense integer keys identifying argument-value
// equality over the filtered rows — the hash surrogate the competitor
// engines deduplicate on.
func denseArgKeys(p *partition, f *FuncSpec, fl *filtered) []int64 {
	cmpArg := p.argCompare(f)
	eqArg := p.argEqual(f)
	sorted := preprocess.SortIndices(fl.k, func(a, b int) int { return cmpArg(fl.local(a), fl.local(b)) })
	keys, _ := preprocess.DenseRanks(sorted, func(a, b int) bool { return eqArg(fl.local(a), fl.local(b)) })
	return keys
}

// filteredFrame builds the engine FrameFunc: the row's continuous frame
// remapped into the filtered domain.
func filteredFrame(fl *filtered, fc *frame.Computer) incremental.FrameFunc {
	return func(i int) (int, int) {
		lo, hi := fc.Bounds(i)
		return fl.toFiltered(lo), fl.toFiltered(hi)
	}
}

func evalCompetitorDistinctCount(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, f.Arg, opt)
	keys := denseArgKeys(p, f, fl)
	frameOf := filteredFrame(fl, fc)
	res := make([]int64, p.len())
	err := forEachRow(p, opt, func(lo, hi int) {
		if f.Engine == EngineIncremental {
			incremental.DistinctCountRange(keys, frameOf, res, lo, hi)
		} else {
			incremental.DistinctCountNaiveRange(keys, frameOf, res, lo, hi)
		}
	})
	if err != nil {
		return err
	}
	for i := 0; i < p.len(); i++ {
		out.setInt(p.orig(i), res[i])
	}
	return nil
}

// evalCompetitorSelect evaluates percentiles and value functions with the
// sorted-buffer (incremental), quickselect (naive) or counted-B-tree
// (ostree) engines. The engines select by the kept rows' function-order row
// numbers; the selected row number maps back to a row through the sorted
// order.
func evalCompetitorSelect(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, selectDropColumn(p, f), opt)
	cmpFunc := p.funcComparator(f)
	sortedKept := preprocess.SortIndices(fl.k, func(a, b int) int { return cmpFunc(fl.local(a), fl.local(b)) })
	keys := preprocess.RowNumbers(sortedKept)
	frameOf := filteredFrame(fl, fc)
	valueCol := selectValueColumn(p, f)

	runSelect := func(kth incremental.KthFunc, res []int64, valid []bool) error {
		return forEachRow(p, opt, func(lo, hi int) {
			switch f.Engine {
			case EngineIncremental:
				incremental.SelectKthRange(keys, frameOf, kth, res, valid, lo, hi)
			case EngineOSTree:
				incremental.SelectKthOSTreeRange(keys, frameOf, kth, res, valid, lo, hi)
			default:
				incremental.SelectKthNaiveRange(keys, frameOf, kth, res, valid, lo, hi)
			}
		})
	}
	rowOf := func(key int64) int { return fl.orig(int(sortedKept[key])) }

	m := p.len()
	if f.Name == PercentileCont {
		res0 := make([]int64, m)
		val0 := make([]bool, m)
		if err := runSelect(func(size int) int {
			if size == 0 {
				return -1
			}
			return int(f.Fraction * float64(size-1))
		}, res0, val0); err != nil {
			return err
		}
		res1 := make([]int64, m)
		val1 := make([]bool, m)
		if err := runSelect(func(size int) int {
			if size == 0 {
				return -1
			}
			return int(f.Fraction*float64(size-1)) + 1
		}, res1, val1); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			row := p.orig(i)
			if !val0[i] {
				out.setNull(row)
				continue
			}
			bLo, bHi := frameOf(i)
			size := bHi - bLo
			rn := f.Fraction * float64(size-1)
			frac := rn - float64(int(rn))
			v := valueCol.Numeric(rowOf(res0[i]))
			if frac > 0 && val1[i] {
				v += frac * (valueCol.Numeric(rowOf(res1[i])) - v)
			}
			out.setFloat(row, v)
		}
		return nil
	}

	res := make([]int64, m)
	valid := make([]bool, m)
	if err := runSelect(func(size int) int {
		if size == 0 {
			return -1
		}
		return selectIndexFor(f, size)
	}, res, valid); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		row := p.orig(i)
		if !valid[i] {
			out.setNull(row)
			continue
		}
		out.copyFrom(valueCol, rowOf(res[i]), row)
	}
	return nil
}

// evalCompetitorRank evaluates the rank family with either per-frame scans
// (naive) or a sliding counted B-tree (ostree).
func evalCompetitorRank(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, "", opt)
	m := p.len()
	sortedAll, err := p.sortedByFuncOrder(f, opt)
	if err != nil {
		return err
	}
	unique := f.Name == RowNumber || f.Name == Ntile
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
	frameOf := filteredFrame(fl, fc)

	emit := func(i int, below, belowEq int64, size int) {
		row := p.orig(i)
		switch f.Name {
		case Rank, RowNumber:
			out.setInt(row, below+1)
		case PercentRank:
			if size <= 1 {
				out.setFloat(row, 0)
			} else {
				out.setFloat(row, float64(below)/float64(size-1))
			}
		case CumeDist:
			if size == 0 {
				out.setNull(row)
			} else {
				out.setFloat(row, float64(belowEq)/float64(size))
			}
		case Ntile:
			fj := -1
			if fl.kept(i) {
				fj = fl.toFiltered(i)
			}
			fLo, fHi := frameOf(i)
			if size == 0 || fj < fLo || fj >= fHi {
				out.setNull(row)
				return
			}
			out.setInt(row, ntileBucket(below, int64(size), f.N))
		}
	}

	return forEachRow(p, opt, func(rowLo, rowHi int) {
		if f.Engine == EngineOSTree {
			var tree ostree.Tree
			var w incremental.Window
			for i := rowLo; i < rowHi; i++ {
				lo, hi := frameOf(i)
				w.Advance(lo, hi,
					func(pos int) { tree.Insert(keysKept[pos]) },
					func(pos int) { tree.Delete(keysKept[pos]) })
				emit(i, int64(tree.CountLess(keysAll[i])), int64(tree.CountLessOrEqual(keysAll[i])), tree.Len())
			}
			return
		}
		for i := rowLo; i < rowHi; i++ {
			lo, hi := frameOf(i)
			var below, belowEq int64
			for pos := lo; pos < hi; pos++ {
				if keysKept[pos] < keysAll[i] {
					below++
				}
				if keysKept[pos] <= keysAll[i] {
					belowEq++
				}
			}
			emit(i, below, belowEq, hi-lo)
		}
	})
}

// evalNaiveLeadLag evaluates framed LEAD/LAG by scanning each frame twice:
// once for the row's own position, once for the adjusted selection.
func evalNaiveLeadLag(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	valueCol := p.t.Column(f.Arg)
	fl := newFiltered(p, f, selectDropColumn(p, f), opt)
	cmpFunc := p.funcComparator(f)
	m := p.len()
	sortedAll, err := p.sortedByFuncOrder(f, opt)
	if err != nil {
		return err
	}
	keptRowno := make([]int64, m)
	keptBefore := int64(0)
	for _, pos := range sortedAll {
		keptRowno[pos] = keptBefore
		if fl.kept(int(pos)) {
			keptBefore++
		}
	}
	sortedKept := preprocess.SortIndices(fl.k, func(a, b int) int { return cmpFunc(fl.local(a), fl.local(b)) })
	keysKept := preprocess.RowNumbers(sortedKept)
	frameOf := filteredFrame(fl, fc)

	off := f.N
	if off == 0 {
		off = 1
	}
	if f.Name == Lag {
		off = -off
	}
	return forEachRow(p, opt, func(rowLo, rowHi int) {
		var buf []int64
		for i := rowLo; i < rowHi; i++ {
			lo, hi := frameOf(i)
			row := p.orig(i)
			if hi <= lo {
				out.setNull(row)
				continue
			}
			before := 0
			for pos := lo; pos < hi; pos++ {
				if keysKept[pos] < keptRowno[i] {
					before++
				}
			}
			target := before + int(off)
			if target < 0 || target >= hi-lo {
				out.setNull(row)
				continue
			}
			// Select the target-th smallest key (keys are unique), then
			// locate its frame position.
			buf = append(buf[:0], keysKept[lo:hi]...)
			want := incremental.Quickselect(buf, target, int64(rowLo)+11)
			for pos := lo; pos < hi; pos++ {
				if keysKept[pos] == want {
					out.copyFrom(valueCol, fl.orig(pos), row)
					break
				}
			}
		}
	})
}

// evalNaiveScan covers the remaining naive-only functions with direct frame
// scans: distinct sums/averages, distributive aggregates and dense rank.
func evalNaiveScan(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	switch f.Name {
	case Sum, Avg, Min, Max:
		// The segment-tree path is already the simplest correct evaluation;
		// a deliberately quadratic scan adds nothing for these.
		return evalDistributive(p, f, fc, out, opt)
	}
	fl := newFiltered(p, f, f.Arg, opt)
	if f.Name == DenseRank {
		fl = newFiltered(p, f, "", opt)
	}
	frameOf := filteredFrame(fl, fc)
	switch f.Name {
	case SumDistinct, AvgDistinct:
		keys := denseArgKeys(p, f, fl)
		col := p.t.Column(f.Arg)
		return forEachRow(p, opt, func(rowLo, rowHi int) {
			seen := make(map[int64]struct{})
			for i := rowLo; i < rowHi; i++ {
				lo, hi := frameOf(i)
				row := p.orig(i)
				clear(seen)
				sum := 0.0
				var isum int64
				cnt := int64(0)
				for pos := lo; pos < hi; pos++ {
					if _, dup := seen[keys[pos]]; dup {
						continue
					}
					seen[keys[pos]] = struct{}{}
					o := fl.orig(pos)
					if col.Kind() == Int64 {
						isum += col.Int64(o)
					}
					sum += col.Numeric(o)
					cnt++
				}
				if cnt == 0 {
					out.setNull(row)
					continue
				}
				if f.Name == AvgDistinct {
					out.setFloat(row, sum/float64(cnt))
				} else if out.kind == Int64 {
					out.setInt(row, isum)
				} else {
					out.setFloat(row, sum)
				}
			}
		})
	case DenseRank:
		sortedAll, err := p.sortedByFuncOrder(f, opt)
		if err != nil {
			return err
		}
		ranksAll, _ := preprocess.DenseRanks(sortedAll, p.funcEqual(f))
		ranksKept := make([]int64, fl.k)
		for j := range ranksKept {
			ranksKept[j] = ranksAll[fl.local(j)]
		}
		return forEachRow(p, opt, func(rowLo, rowHi int) {
			seen := make(map[int64]struct{})
			for i := rowLo; i < rowHi; i++ {
				lo, hi := frameOf(i)
				clear(seen)
				for pos := lo; pos < hi; pos++ {
					if ranksKept[pos] < ranksAll[i] {
						seen[ranksKept[pos]] = struct{}{}
					}
				}
				out.setInt(p.orig(i), int64(len(seen))+1)
			}
		})
	}
	return fmt.Errorf("engine %v cannot evaluate %v", f.Engine, f.Name)
}
