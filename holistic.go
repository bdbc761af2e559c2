// Package holistic evaluates arbitrarily-framed holistic SQL aggregates and
// window functions over columnar tables, implementing the SIGMOD 2022 paper
// "Efficient Evaluation of Arbitrarily-Framed Holistic SQL Aggregates and
// Window Functions" (Vogelsgesang, Neumann, Leis, Kemper).
//
// SQL:2011 forbids window frames on holistic aggregates — you cannot write
// COUNT(DISTINCT x) OVER (...) or give RANK a frame. This library lifts the
// restriction: every SQL aggregate and window function except framing-free
// corner cases composes with ROWS/RANGE/GROUPS frames, frame exclusion
// clauses, FILTER, IGNORE NULLS, and an independent per-function ORDER BY,
// in guaranteed O(n log n) using the paper's merge sort trees. DENSE_RANK
// takes O(n log² n) via a range tree, exactly as the paper prescribes.
//
// A query is a table, a window specification and a list of functions:
//
//	res, err := holistic.Run(table,
//	    holistic.Over().
//	        OrderBy(holistic.Asc("o_orderdate")).
//	        Frame(holistic.Range(holistic.Preceding(30), holistic.CurrentRow())),
//	    holistic.CountDistinct("o_custkey").As("monthly_active"),
//	)
//
// evaluates the paper's motivating monthly-active-users query. The result
// holds one column per function, aligned with the input row order.
//
// Every holistic function runs on its merge sort tree (SUM, AVG, MIN and MAX
// on a segment tree); there is no other evaluation strategy to pick. The
// competitors the paper evaluates against — naive recomputation, Wesley &
// Xu's incremental algorithms, order statistic trees and sorted-list segment
// trees — are baselines, which the benchmark harness in cmd/paperbench
// drives directly to reproduce the paper's figures.
package holistic

import (
	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/mst"
)

// Table is a named collection of equal-length columns.
type Table = core.Table

// Column is a typed column with an optional NULL mask.
type Column = core.Column

// Result holds the output columns of a Run, in input row order.
type Result = core.Result

// Kind identifies a column's physical type.
type Kind = core.Kind

// Column type constants.
const (
	Int64   = core.Int64
	Float64 = core.Float64
	String  = core.String
	Bool    = core.Bool
)

// NewTable builds a table from columns of equal length.
func NewTable(cols ...*Column) (*Table, error) { return core.NewTable(cols...) }

// MustNewTable is NewTable that panics on error.
func MustNewTable(cols ...*Column) *Table { return core.MustNewTable(cols...) }

// NewInt64Column builds an INT64 column; nulls may be nil.
func NewInt64Column(name string, values []int64, nulls []bool) *Column {
	return core.NewInt64Column(name, values, nulls)
}

// NewFloat64Column builds a FLOAT64 column; nulls may be nil.
func NewFloat64Column(name string, values []float64, nulls []bool) *Column {
	return core.NewFloat64Column(name, values, nulls)
}

// NewStringColumn builds a STRING column; nulls may be nil.
func NewStringColumn(name string, values []string, nulls []bool) *Column {
	return core.NewStringColumn(name, values, nulls)
}

// NewBoolColumn builds a BOOL column; nulls may be nil.
func NewBoolColumn(name string, values []bool, nulls []bool) *Column {
	return core.NewBoolColumn(name, values, nulls)
}

// SortKey is one ORDER BY item.
type SortKey = core.SortKey

// Asc orders a column ascending (NULLs last).
func Asc(column string) SortKey { return SortKey{Column: column} }

// Desc orders a column descending (NULLs first).
func Desc(column string) SortKey { return SortKey{Column: column, Desc: true} }

// AscNullsFirst orders ascending with NULLs first.
func AscNullsFirst(column string) SortKey {
	return SortKey{Column: column, NullsSmallest: true}
}

// DescNullsLast orders descending with NULLs last.
func DescNullsLast(column string) SortKey {
	return SortKey{Column: column, Desc: true, NullsSmallest: true}
}

// Options tunes execution; the zero value uses the paper's defaults
// (f = k = 32 merge sort trees, 20 000-row tasks). The functional options
// (WithTrace, WithCache, WithTree, ...) build the same struct — see
// NewOptions and RunWith.
type Options = core.Options

// TreeOptions configures merge sort tree construction (fanout f, pointer
// sampling k, cascading).
type TreeOptions = mst.Options

// Window builds an OVER clause.
type Window struct {
	spec core.WindowSpec
}

// Over starts a window specification.
func Over() *Window { return &Window{} }

// PartitionBy sets the PARTITION BY columns.
func (w *Window) PartitionBy(columns ...string) *Window {
	w.spec.PartitionBy = columns
	return w
}

// OrderBy sets the window ORDER BY used to establish frames.
func (w *Window) OrderBy(keys ...SortKey) *Window {
	w.spec.OrderBy = keys
	return w
}

// Frame sets the default frame for all functions of this window. Without
// it, SQL's defaults apply: RANGE UNBOUNDED PRECEDING..CURRENT ROW with an
// ORDER BY, the whole partition without.
func (w *Window) Frame(f Frame) *Window {
	w.spec.Frame = frame.Spec(f)
	w.spec.FrameSet = true
	return w
}

// Func builds one window function invocation.
type Func struct {
	spec core.FuncSpec
}

// As names the output column.
func (f *Func) As(name string) *Func {
	f.spec.Output = name
	return f
}

// Filter restricts the function's input to rows where the named BOOL column
// is true (SQL's FILTER clause, extended to all window functions, §4.7).
func (f *Func) Filter(boolColumn string) *Func {
	f.spec.Filter = boolColumn
	return f
}

// IgnoreNulls applies IGNORE NULLS (value functions and LEAD/LAG).
func (f *Func) IgnoreNulls() *Func {
	f.spec.IgnoreNulls = true
	return f
}

// WithFrame overrides the window's frame for this function only.
func (f *Func) WithFrame(fr Frame) *Func {
	spec := frame.Spec(fr)
	f.spec.Frame = &spec
	return f
}

// ValueColumn names the column whose values the function returns unchanged
// (MIN, MAX, PERCENTILE_DISC, the value functions, LEAD and LAG), so its
// result reads like that column, for example as a date. It is empty for
// functions that compute a new quantity.
func (f *Func) ValueColumn() string { return f.spec.ValueColumn() }

// Run evaluates the functions over the table under the window
// specification with default options.
func Run(t *Table, w *Window, funcs ...*Func) (*Result, error) {
	return RunOptions(t, w, Options{}, funcs...)
}

// RunOptions is Run with explicit execution options.
func RunOptions(t *Table, w *Window, opt Options, funcs ...*Func) (*Result, error) {
	spec := w.spec
	spec.Funcs = make([]core.FuncSpec, len(funcs))
	for i, f := range funcs {
		spec.Funcs[i] = f.spec
	}
	return core.Run(t, &spec, opt)
}
