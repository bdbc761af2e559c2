package core

import (
	"fmt"

	"holistic/internal/frame"
)

// SortKey is one ORDER BY item. NULLs order as the largest values
// (PostgreSQL semantics: NULLS LAST ascending, NULLS FIRST descending)
// unless NullsSmallest is set.
type SortKey struct {
	Column        string
	Desc          bool
	NullsSmallest bool
}

// compare orders rows i and j of col under this key.
func (k SortKey) compare(col *Column, i, j int) int {
	return col.Compare(i, j, k.Desc, !k.NullsSmallest)
}

// FuncName identifies a window function or aggregate.
type FuncName int

const (
	// CountStar is COUNT(*) — rows in the frame.
	CountStar FuncName = iota
	// Count is COUNT(x) — non-NULL arguments in the frame.
	Count
	// Sum is SUM(x) over the frame, from per-lane prefix sums (exactsum.go).
	Sum
	// Avg is AVG(x) over the frame.
	Avg
	// Min is MIN(x) over the frame. MIN(DISTINCT x) is identical.
	Min
	// Max is MAX(x) over the frame. MAX(DISTINCT x) is identical.
	Max
	// CountDistinct is the framed COUNT(DISTINCT x) of §4.2.
	CountDistinct
	// SumDistinct is the framed SUM(DISTINCT x) of §4.3.
	SumDistinct
	// AvgDistinct is the framed AVG(DISTINCT x) (algebraic, §4.3).
	AvgDistinct
	// Rank is the framed RANK(ORDER BY ...) of §4.4.
	Rank
	// DenseRank is the framed DENSE_RANK(ORDER BY ...) of §4.4, evaluated
	// with a range tree.
	DenseRank
	// PercentRank is the framed PERCENT_RANK(ORDER BY ...).
	PercentRank
	// RowNumber is the framed ROW_NUMBER(ORDER BY ...).
	RowNumber
	// CumeDist is the framed CUME_DIST(ORDER BY ...).
	CumeDist
	// Ntile is the framed NTILE(n)(ORDER BY ...).
	Ntile
	// PercentileDisc is the framed PERCENTILE_DISC(p ORDER BY ...) of §4.5.
	PercentileDisc
	// PercentileCont is the framed PERCENTILE_CONT(p ORDER BY ...).
	PercentileCont
	// NthValue is the framed NTH_VALUE(x, n ORDER BY ...) of §4.5.
	NthValue
	// FirstValue is the framed FIRST_VALUE(x ORDER BY ...).
	FirstValue
	// LastValue is the framed LAST_VALUE(x ORDER BY ...).
	LastValue
	// Lead is the framed LEAD(x, n ORDER BY ...) of §4.6.
	Lead
	// Lag is the framed LAG(x, n ORDER BY ...) of §4.6.
	Lag
)

var funcNames = map[FuncName]string{
	CountStar: "count(*)", Count: "count", Sum: "sum", Avg: "avg",
	Min: "min", Max: "max", CountDistinct: "count(distinct)",
	SumDistinct: "sum(distinct)", AvgDistinct: "avg(distinct)",
	Rank: "rank", DenseRank: "dense_rank", PercentRank: "percent_rank",
	RowNumber: "row_number", CumeDist: "cume_dist", Ntile: "ntile",
	PercentileDisc: "percentile_disc", PercentileCont: "percentile_cont",
	NthValue: "nth_value", FirstValue: "first_value", LastValue: "last_value",
	Lead: "lead", Lag: "lag",
}

func (f FuncName) String() string {
	if s, ok := funcNames[f]; ok {
		return s
	}
	return fmt.Sprintf("FuncName(%d)", int(f))
}

// FuncSpec is one window function invocation.
type FuncSpec struct {
	// Name is the function.
	Name FuncName
	// Output is the result column's name.
	Output string
	// Arg is the argument column (value source) for functions that take
	// one. Empty for CountStar and pure rank functions.
	Arg string
	// OrderBy is the function-level ORDER BY of the paper's proposed
	// extension (§2.4) — the criterion by which ranks are computed, values
	// selected, and percentiles ordered. It is independent of the window's
	// ORDER BY, which only establishes the frame. When empty, order-based
	// functions fall back to the window order.
	OrderBy []SortKey
	// Fraction is the percentile fraction p for PercentileDisc/Cont.
	Fraction float64
	// N is NTH_VALUE's n (1-based), NTILE's bucket count, or LEAD/LAG's
	// offset (defaults to 1 when 0 for these three).
	N int64
	// Filter names a BOOL column acting as the FILTER clause (§4.7); rows
	// whose filter value is false or NULL are excluded from the function's
	// input. Empty means no filter.
	Filter string
	// IgnoreNulls applies the IGNORE NULLS clause of value functions and
	// LEAD/LAG (§4.5).
	IgnoreNulls bool
	// Frame overrides the window-level frame for this function.
	Frame *frame.Spec
}

// WindowSpec describes one OVER clause and the functions evaluated over it.
type WindowSpec struct {
	// PartitionBy lists the partitioning columns.
	PartitionBy []string
	// OrderBy establishes the window order used to compute frames.
	OrderBy []SortKey
	// Frame is the default frame for all functions. The zero value is
	// replaced by SQL's default frame (RANGE BETWEEN UNBOUNDED PRECEDING
	// AND CURRENT ROW) when OrderBy is set, and the whole partition when
	// not, per the SQL standard.
	Frame frame.Spec
	// FrameSet marks Frame as explicitly provided.
	FrameSet bool
	// Funcs are the window functions to evaluate.
	Funcs []FuncSpec
}

// effectiveFrame resolves the frame a function runs under.
func (w *WindowSpec) effectiveFrame(f *FuncSpec) frame.Spec {
	if f.Frame != nil {
		return *f.Frame
	}
	if w.FrameSet {
		return w.Frame
	}
	return frame.DefaultFor(len(w.OrderBy) > 0)
}

// needsFuncOrder reports whether the function interprets a function-level
// ORDER BY.
func (f *FuncSpec) needsFuncOrder() bool {
	switch f.Name {
	case Rank, DenseRank, PercentRank, RowNumber, CumeDist, Ntile,
		PercentileDisc, PercentileCont, NthValue, FirstValue, LastValue, Lead, Lag:
		return true
	}
	return false
}

// takesArg reports whether the function reads an argument column.
func (f *FuncSpec) takesArg() bool {
	switch f.Name {
	case CountStar, Rank, DenseRank, PercentRank, RowNumber, CumeDist, Ntile:
		return false
	case PercentileDisc, PercentileCont:
		// The percentile's value source is its ORDER BY column; Arg is
		// optional and defaults to the first ORDER BY column.
		return false
	}
	return true
}

// validate checks a function spec against the table.
func (f *FuncSpec) validate(t *Table, w *WindowSpec) error {
	if f.Output == "" {
		return fmt.Errorf("core: %v: empty output name", f.Name)
	}
	if f.takesArg() {
		if f.Arg == "" {
			return fmt.Errorf("core: %v (%s): missing argument column", f.Name, f.Output)
		}
		if t.Column(f.Arg) == nil {
			return fmt.Errorf("core: %v (%s): unknown column %q", f.Name, f.Output, f.Arg)
		}
	}
	for _, k := range f.OrderBy {
		if t.Column(k.Column) == nil {
			return fmt.Errorf("core: %v (%s): unknown ORDER BY column %q", f.Name, f.Output, k.Column)
		}
	}
	switch f.Name {
	case PercentileDisc, PercentileCont:
		if f.Fraction < 0 || f.Fraction > 1 {
			return fmt.Errorf("core: %v (%s): fraction %v outside [0,1]", f.Name, f.Output, f.Fraction)
		}
		if len(f.OrderBy) == 0 {
			return fmt.Errorf("core: %v (%s): requires ORDER BY", f.Name, f.Output)
		}
		if f.Name == PercentileCont {
			// Interpolation needs numbers.
			if c := t.Column(f.OrderBy[0].Column); c != nil && c.Kind() != Int64 && c.Kind() != Float64 {
				return fmt.Errorf("core: percentile_cont (%s): ORDER BY column %q is %v, want numeric", f.Output, c.Name(), c.Kind())
			}
		}
	case Ntile:
		if f.N < 1 {
			return fmt.Errorf("core: ntile (%s): bucket count %d must be >= 1", f.Output, f.N)
		}
	case NthValue:
		if f.N < 1 {
			return fmt.Errorf("core: nth_value (%s): n %d must be >= 1", f.Output, f.N)
		}
	}
	if f.needsFuncOrder() && len(f.OrderBy) == 0 && len(w.OrderBy) == 0 {
		return fmt.Errorf("core: %v (%s): requires an ORDER BY (function-level or window-level)", f.Name, f.Output)
	}
	if f.Filter != "" {
		fc := t.Column(f.Filter)
		if fc == nil {
			return fmt.Errorf("core: %v (%s): unknown FILTER column %q", f.Name, f.Output, f.Filter)
		}
		if fc.Kind() != Bool {
			return fmt.Errorf("core: %v (%s): FILTER column %q is %v, want BOOL", f.Name, f.Output, f.Filter, fc.Kind())
		}
	}
	switch f.Name {
	case Sum, Avg, SumDistinct, AvgDistinct:
		if c := t.Column(f.Arg); c != nil && c.Kind() != Int64 && c.Kind() != Float64 {
			return fmt.Errorf("core: %v (%s): argument %q is %v, want numeric", f.Name, f.Output, f.Arg, c.Kind())
		}
	case Min, Max:
		if c := t.Column(f.Arg); c != nil && c.Kind() == Bool {
			return fmt.Errorf("core: %v (%s): argument %q is %v, want INT64, FLOAT64 or STRING", f.Name, f.Output, f.Arg, c.Kind())
		}
	}
	fr := w.effectiveFrame(f)
	if err := fr.Validate(); err != nil {
		return fmt.Errorf("core: %v (%s): %w", f.Name, f.Output, err)
	}
	return nil
}

// validate checks the window spec against the table.
func (w *WindowSpec) validate(t *Table) error {
	for _, p := range w.PartitionBy {
		if t.Column(p) == nil {
			return fmt.Errorf("core: unknown PARTITION BY column %q", p)
		}
	}
	for _, k := range w.OrderBy {
		if t.Column(k.Column) == nil {
			return fmt.Errorf("core: unknown ORDER BY column %q", k.Column)
		}
	}
	if len(w.Funcs) == 0 {
		return fmt.Errorf("core: window spec has no functions")
	}
	seen := make(map[string]bool)
	for i := range w.Funcs {
		f := &w.Funcs[i]
		if seen[f.Output] {
			return fmt.Errorf("core: duplicate output column %q", f.Output)
		}
		seen[f.Output] = true
		if err := f.validate(t, w); err != nil {
			return err
		}
		if w.effectiveFrame(f).NeedsKeys() {
			if len(w.OrderBy) != 1 {
				return fmt.Errorf("core: %v (%s): RANGE frame requires exactly one window ORDER BY key for an offset bound", f.Name, f.Output)
			}
			oc := t.Column(w.OrderBy[0].Column)
			if oc.Kind() != Int64 {
				return fmt.Errorf("core: %v (%s): RANGE frame requires an INT64 order key for an offset bound, %q is %v", f.Name, f.Output, oc.Name(), oc.Kind())
			}
		}
	}
	return nil
}
