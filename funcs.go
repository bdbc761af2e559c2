package holistic

import (
	"fmt"

	"holistic/internal/core"
)

func newFunc(name core.FuncName, defaultOut string) *Func {
	return &Func{spec: core.FuncSpec{Name: name, Output: defaultOut}}
}

// CountStar is COUNT(*) OVER (...): the number of rows in the frame.
func CountStar() *Func { return newFunc(core.CountStar, "count_star") }

// Count is COUNT(x) OVER (...): non-NULL arguments in the frame.
func Count(column string) *Func {
	f := newFunc(core.Count, fmt.Sprintf("count_%s", column))
	f.spec.Arg = column
	return f
}

// Sum is SUM(x) OVER (...), evaluated from exact prefix sums.
func Sum(column string) *Func {
	f := newFunc(core.Sum, fmt.Sprintf("sum_%s", column))
	f.spec.Arg = column
	return f
}

// Avg is AVG(x) OVER (...).
func Avg(column string) *Func {
	f := newFunc(core.Avg, fmt.Sprintf("avg_%s", column))
	f.spec.Arg = column
	return f
}

// Min is MIN(x) OVER (...).
func Min(column string) *Func {
	f := newFunc(core.Min, fmt.Sprintf("min_%s", column))
	f.spec.Arg = column
	return f
}

// Max is MAX(x) OVER (...).
func Max(column string) *Func {
	f := newFunc(core.Max, fmt.Sprintf("max_%s", column))
	f.spec.Arg = column
	return f
}

// CountDistinct is the paper's framed COUNT(DISTINCT x) OVER (...) (§4.2):
// forbidden by SQL:2011, evaluated here in O(n log n) with a merge sort
// tree over previous-occurrence indices.
func CountDistinct(column string) *Func {
	f := newFunc(core.CountDistinct, fmt.Sprintf("count_distinct_%s", column))
	f.spec.Arg = column
	return f
}

// SumDistinct is the framed SUM(DISTINCT x) OVER (...) (§4.3), using the
// annotated merge sort tree; works for any frame including exclusions.
func SumDistinct(column string) *Func {
	f := newFunc(core.SumDistinct, fmt.Sprintf("sum_distinct_%s", column))
	f.spec.Arg = column
	return f
}

// AvgDistinct is the framed AVG(DISTINCT x) OVER (...).
func AvgDistinct(column string) *Func {
	f := newFunc(core.AvgDistinct, fmt.Sprintf("avg_distinct_%s", column))
	f.spec.Arg = column
	return f
}

// Rank is the framed RANK(ORDER BY ...) OVER (...) of §4.4: the rank of the
// current row among the frame's rows under the function-level ORDER BY,
// which is independent of the window ORDER BY that establishes the frame
// (§2.4's proposed extension).
func Rank(orderBy ...SortKey) *Func {
	f := newFunc(core.Rank, "rank")
	f.spec.OrderBy = orderBy
	return f
}

// DenseRank is the framed DENSE_RANK(ORDER BY ...) OVER (...), evaluated
// with a range tree in O(n log² n) (§4.4).
func DenseRank(orderBy ...SortKey) *Func {
	f := newFunc(core.DenseRank, "dense_rank")
	f.spec.OrderBy = orderBy
	return f
}

// PercentRank is the framed PERCENT_RANK(ORDER BY ...) OVER (...).
func PercentRank(orderBy ...SortKey) *Func {
	f := newFunc(core.PercentRank, "percent_rank")
	f.spec.OrderBy = orderBy
	return f
}

// RowNumber is the framed ROW_NUMBER(ORDER BY ...) OVER (...): rank with
// ties broken by input position (§4.4).
func RowNumber(orderBy ...SortKey) *Func {
	f := newFunc(core.RowNumber, "row_number")
	f.spec.OrderBy = orderBy
	return f
}

// CumeDist is the framed CUME_DIST(ORDER BY ...) OVER (...).
func CumeDist(orderBy ...SortKey) *Func {
	f := newFunc(core.CumeDist, "cume_dist")
	f.spec.OrderBy = orderBy
	return f
}

// Ntile is the framed NTILE(n)(ORDER BY ...) OVER (...): buckets the
// frame's rows into n groups. Rows outside their own frame get NULL.
func Ntile(n int64, orderBy ...SortKey) *Func {
	f := newFunc(core.Ntile, fmt.Sprintf("ntile_%d", n))
	f.spec.N = n
	f.spec.OrderBy = orderBy
	return f
}

// PercentileDisc is the framed PERCENTILE_DISC(p ORDER BY ...) OVER (...)
// of §4.5: the first order-key value whose cumulative distribution within
// the frame reaches p. The result column has the first ORDER BY column's
// type.
func PercentileDisc(p float64, orderBy ...SortKey) *Func {
	f := newFunc(core.PercentileDisc, "percentile_disc")
	f.spec.Fraction = p
	f.spec.OrderBy = orderBy
	return f
}

// PercentileCont is the framed PERCENTILE_CONT(p ORDER BY ...) OVER (...):
// linear interpolation between the two adjacent values. Requires a numeric
// ORDER BY column.
func PercentileCont(p float64, orderBy ...SortKey) *Func {
	f := newFunc(core.PercentileCont, "percentile_cont")
	f.spec.Fraction = p
	f.spec.OrderBy = orderBy
	return f
}

// Median is PERCENTILE_CONT(0.5).
func Median(orderBy ...SortKey) *Func {
	return PercentileCont(0.5, orderBy...).As("median")
}

// MedianDisc is PERCENTILE_DISC(0.5).
func MedianDisc(orderBy ...SortKey) *Func {
	return PercentileDisc(0.5, orderBy...).As("median")
}

// NthValue is the framed NTH_VALUE(x, n ORDER BY ...) OVER (...): the
// argument of the frame's n-th row (1-based) in function order (§4.5).
func NthValue(column string, n int64, orderBy ...SortKey) *Func {
	f := newFunc(core.NthValue, fmt.Sprintf("nth_value_%s_%d", column, n))
	f.spec.Arg = column
	f.spec.N = n
	f.spec.OrderBy = orderBy
	return f
}

// FirstValue is the framed FIRST_VALUE(x ORDER BY ...) OVER (...).
func FirstValue(column string, orderBy ...SortKey) *Func {
	f := newFunc(core.FirstValue, fmt.Sprintf("first_value_%s", column))
	f.spec.Arg = column
	f.spec.OrderBy = orderBy
	return f
}

// LastValue is the framed LAST_VALUE(x ORDER BY ...) OVER (...).
func LastValue(column string, orderBy ...SortKey) *Func {
	f := newFunc(core.LastValue, fmt.Sprintf("last_value_%s", column))
	f.spec.Arg = column
	f.spec.OrderBy = orderBy
	return f
}

// Lead is the framed LEAD(x, offset ORDER BY ...) OVER (...) of §4.6: the
// argument of the frame row `offset` positions after the current row in
// function order. offset 0 defaults to 1.
func Lead(column string, offset int64, orderBy ...SortKey) *Func {
	f := newFunc(core.Lead, fmt.Sprintf("lead_%s", column))
	f.spec.Arg = column
	f.spec.N = offset
	f.spec.OrderBy = orderBy
	return f
}

// Lag is the framed LAG(x, offset ORDER BY ...) OVER (...).
func Lag(column string, offset int64, orderBy ...SortKey) *Func {
	f := newFunc(core.Lag, fmt.Sprintf("lag_%s", column))
	f.spec.Arg = column
	f.spec.N = offset
	f.spec.OrderBy = orderBy
	return f
}
