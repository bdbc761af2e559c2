package main

import (
	"cmp"
	"math"
	"time"

	"holistic"
	"holistic/internal/incremental"
	"holistic/internal/ostree"
	"holistic/internal/parallel"
	"holistic/internal/preprocess"
	"holistic/internal/segtree"
	"holistic/internal/tpch"
)

// algorithm is one column of the figures: the merge sort tree, evaluated by
// holistic.Run, or one of the competitors the paper measures it against
// (§5.5, Table 1), driven directly by runBaseline.
type algorithm int

const (
	algMST algorithm = iota
	algOSTree
	algIncremental
	algNaive
	algSegTree
)

func (a algorithm) String() string {
	switch a {
	case algMST:
		return "merge sort tree"
	case algOSTree:
		return "order stat tree"
	case algIncremental:
		return "incremental"
	case algNaive:
		return "naive"
	case algSegTree:
		return "segment tree"
	}
	return "?"
}

// estimatedOps approximates an algorithm's work so hopeless configurations
// can be skipped instead of burning hours: the naive scan touches n·w
// values, the incremental state is rebuilt once per 20 000-row task (and the
// median's sorted buffer moves O(w) entries per row), and the order
// statistic tree pays a log factor on top.
func (a algorithm) estimatedOps(fn function, n, frame int) float64 {
	nf, ff := float64(n), float64(frame)
	tasks := max(nf/parallel.DefaultTaskSize, 1)
	switch a {
	case algNaive:
		return nf * ff
	case algIncremental:
		if fn == median {
			return nf * ff / 4 // per-row memmove of the sorted buffer
		}
		return 16*nf + 4*tasks*ff
	case algOSTree:
		return (16*nf + 4*tasks*ff) * 8
	default:
		return 64 * nf
	}
}

// function is one of the four window functions the figures measure, all
// over l_extendedprice or l_partkey within a ROWS frame in l_shipdate order.
type function int

const (
	median        function = iota // PERCENTILE_DISC(0.5) ORDER BY l_extendedprice
	rank                          // RANK() ORDER BY l_extendedprice
	lead                          // LEAD(l_extendedprice, 1) ORDER BY l_extendedprice
	distinctCount                 // COUNT(DISTINCT l_partkey)
)

func (f function) String() string {
	return [...]string{"median", "rank", "lead", "distinct count"}[f]
}

// mst returns the function as holistic.Run evaluates it.
func (f function) mst() *holistic.Func {
	price := holistic.Asc("l_extendedprice")
	switch f {
	case median:
		return holistic.MedianDisc(price).As("out")
	case rank:
		return holistic.Rank(price).As("out")
	case lead:
		return holistic.Lead("l_extendedprice", 1, price).As("out")
	}
	return holistic.CountDistinct("l_partkey").As("out")
}

// rowsFrame is a ROWS frame over l_shipdate: frame for holistic.Run, and the
// same bounds as offsets per input row for the baselines.
type rowsFrame struct {
	frame                holistic.Frame
	preceding, following func(row int) int64
}

// sliding is ROWS BETWEEN size-1 PRECEDING AND CURRENT ROW, the experiments'
// standard frame.
func sliding(size int) rowsFrame {
	return rowsFrame{
		frame:     holistic.Rows(holistic.Preceding(int64(size-1)), holistic.CurrentRow()),
		preceding: func(int) int64 { return int64(size - 1) },
		following: func(int) int64 { return 0 },
	}
}

// measure times one evaluation of fn over l under a, in tasks of taskSize
// rows (0: the default 20 000).
func measure(a algorithm, fn function, l *tpch.Lineitem, fr rowsFrame, taskSize int) time.Duration {
	if a == algMST {
		table, w := l.Table(), shipdateWindow(fr.frame)
		opt := holistic.Options{TaskSize: taskSize}
		return timeIt(func() {
			_, err := holistic.RunOptions(table, w, opt, fn.mst())
			die(err)
		})
	}
	return timeIt(func() { runBaseline(l, a, fn, fr, taskSize) })
}

// runBaseline evaluates fn over l with a baseline algorithm and returns one
// value per lineitem row in input order, NaN where SQL yields NULL. Like
// holistic.Run it does all its own work: it sorts the rows into window
// order, numbers them in function order (preprocess row numbers for the
// selections, dense ranks for RANK), and then drives the algorithm over
// parallel.For tasks of taskSize rows, each of which starts from an empty
// state. Only the (function, algorithm) pairs the figures run are served.
func runBaseline(l *tpch.Lineitem, a algorithm, fn function, fr rowsFrame, taskSize int) []float64 {
	n := l.Len()
	order := preprocess.SortIndicesByKey(l.ShipDate)
	frameOf := func(i int) (int, int) {
		row := int(order[i])
		return max(i-int(fr.preceding(row)), 0), min(i+int(fr.following(row))+1, n)
	}
	res := make([]int64, n)
	valid := make([]bool, n) // the selections' non-NULL rows; counts are never NULL
	var task func(lo, hi int)
	value := func(r int64) float64 { return float64(r) }

	if fn == distinctCount {
		keys := make([]int64, n)
		for i, row := range order {
			keys[i] = l.PartKey[row]
		}
		task = func(lo, hi int) {
			if a == algIncremental {
				incremental.DistinctCountRange(keys, frameOf, res, lo, hi)
			} else {
				incremental.DistinctCountNaiveRange(keys, frameOf, res, lo, hi)
			}
		}
	} else {
		price := make([]float64, n)
		for i, row := range order {
			price[i] = l.ExtendedPrice[row]
		}
		// Price ties break by input row, as the operator's function order does.
		byPrice := preprocess.SortIndices(n, func(i, j int) int {
			return cmp.Or(cmp.Compare(price[i], price[j]), cmp.Compare(order[i], order[j]))
		})
		// The selections answer with a row number in price order.
		value = func(r int64) float64 { return price[byPrice[r]] }
		switch fn {
		case median:
			keys := preprocess.RowNumbers(byPrice)
			kth := func(size int) int { return int(math.Ceil(0.5*float64(size))) - 1 }
			var st *segtree.SortedTree
			if a == algSegTree {
				st = segtree.NewSorted(keys)
			}
			task = func(lo, hi int) {
				switch a {
				case algIncremental:
					incremental.SelectKthRange(keys, frameOf, kth, res, valid, lo, hi)
				case algOSTree:
					incremental.SelectKthOSTreeRange(keys, frameOf, kth, res, valid, lo, hi)
				case algNaive:
					incremental.SelectKthNaiveRange(keys, frameOf, kth, res, valid, lo, hi)
				case algSegTree:
					for i := lo; i < hi; i++ {
						flo, fhi := frameOf(i)
						res[i], valid[i] = st.Kth(flo, fhi, kth(fhi-flo))
					}
				}
			}
		case lead:
			keys := preprocess.RowNumbers(byPrice)
			task = func(lo, hi int) { incremental.LeadLagNaiveRange(keys, frameOf, 1, res, valid, lo, hi) }
		case rank:
			keys, _ := preprocess.DenseRanks(byPrice, func(i, j int) bool { return price[i] == price[j] })
			value = func(r int64) float64 { return float64(r + 1) }
			task = func(lo, hi int) {
				if a == algNaive {
					incremental.CountBelowSelfNaiveRange(keys, frameOf, true, res, lo, hi)
				} else {
					var tree ostree.Tree
					var w incremental.Window
					for i := lo; i < hi; i++ {
						flo, fhi := frameOf(i)
						w.Advance(flo, fhi,
							func(p int) { tree.Insert(keys[p]) },
							func(p int) { tree.Delete(keys[p]) })
						res[i] = int64(tree.CountLess(keys[i]))
					}
				}
			}
		}
	}
	parallel.For(n, taskSize, task)

	out := make([]float64, n)
	for i, row := range order {
		out[row] = math.NaN()
		if valid[i] || fn == rank || fn == distinctCount {
			out[row] = value(res[i])
		}
	}
	return out
}
