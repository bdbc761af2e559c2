package sqlparse

import (
	"fmt"

	"holistic/internal/core"
	"holistic/internal/frame"
)

// Query is a parsed SELECT statement.
type Query struct {
	// Items are the select-list entries. Plain column references and window
	// function calls are both allowed.
	Items []SelectItem
	// From is the source table name.
	From string
	// Windows holds the named windows of the WINDOW clause.
	Windows map[string]*WindowDef
}

// SelectItem is one select-list entry.
type SelectItem struct {
	// Column is set for a plain column reference.
	Column string
	// Func is set for a window function call.
	Func *FuncCall
	// Alias is the AS name (may be empty).
	Alias string
	// Text is the original SQL snippet, used for default output names.
	Text string
}

// FuncCall is a window function invocation with the paper's extensions.
type FuncCall struct {
	Name        string
	Star        bool     // count(*)
	Distinct    bool     // count(distinct x), sum(distinct x), ...
	Args        []string // column arguments
	Number      float64  // numeric literal argument (percentile fraction, ntile buckets, offsets)
	HasNumber   bool
	OrderBy     []OrderKey // function-level ORDER BY (§2.4)
	Filter      string     // FILTER (WHERE col)
	IgnoreNulls bool
	// Window is the inline OVER (...) definition; WindowRef names a WINDOW
	// clause entry instead.
	Window    *WindowDef
	WindowRef string
}

// OrderKey is one ORDER BY entry.
type OrderKey struct {
	Column     string
	Desc       bool
	NullsFirst bool
	NullsSet   bool
}

// WindowDef is an OVER clause body.
type WindowDef struct {
	// Ref names an existing window this definition inherits from (the
	// SQL-standard existing-window-name form: WINDOW w2 AS (w1 ORDER BY
	// ...)). The parser records it; resolution copies the base window's
	// partitioning/ordering into this definition and clears Ref, erroring
	// on cycles and on override conflicts.
	Ref         string
	PartitionBy []string
	OrderBy     []OrderKey
	Frame       *FrameDef
}

// FrameDef is a window frame clause.
type FrameDef struct {
	Mode    string // "rows", "range", "groups"
	Start   BoundDef
	End     BoundDef
	Exclude string // "", "current row", "group", "ties", "no others"
}

// BoundDef is one frame bound.
type BoundDef struct {
	Kind   string // "unbounded preceding", "preceding", "current row", "following", "unbounded following"
	Offset int64
}

// inherit copies the base window named by Ref into this definition,
// enforcing the standard's existing-window-name rules: the derived window
// may not have its own PARTITION BY, may add an ORDER BY only when the base
// has none, and the base may not carry a frame clause (frames never
// inherit; the derived window supplies its own).
func (w *WindowDef) inherit(base *WindowDef) error {
	name := w.Ref
	if len(w.PartitionBy) > 0 {
		return fmt.Errorf("sql: window inheriting from %q cannot override its PARTITION BY", name)
	}
	if base.Frame != nil {
		return fmt.Errorf("sql: cannot inherit from window %q because it has a frame clause", name)
	}
	if len(base.OrderBy) > 0 && len(w.OrderBy) > 0 {
		return fmt.Errorf("sql: window inheriting from %q cannot override its ORDER BY", name)
	}
	w.PartitionBy = base.PartitionBy
	if len(w.OrderBy) == 0 {
		w.OrderBy = base.OrderBy
	}
	w.Ref = ""
	return nil
}

// toSortKeys converts parsed order keys to core sort keys.
func toSortKeys(keys []OrderKey) []core.SortKey {
	out := make([]core.SortKey, len(keys))
	for i, k := range keys {
		sk := core.SortKey{Column: k.Column, Desc: k.Desc}
		if k.NullsSet {
			// core's NullsSmallest means "NULLS FIRST ascending / LAST
			// descending" (the non-default placement).
			sk.NullsSmallest = k.NullsFirst != k.Desc
		}
		out[i] = sk
	}
	return out
}

// toFrameSpec converts a parsed frame to the engine representation.
func (f *FrameDef) toFrameSpec() (frame.Spec, error) {
	var spec frame.Spec
	switch f.Mode {
	case "rows":
		spec.Mode = frame.Rows
	case "range":
		spec.Mode = frame.Range
	case "groups":
		spec.Mode = frame.Groups
	default:
		return spec, fmt.Errorf("sql: unknown frame mode %q", f.Mode)
	}
	var err error
	spec.Start, err = f.Start.toBound()
	if err != nil {
		return spec, err
	}
	spec.End, err = f.End.toBound()
	if err != nil {
		return spec, err
	}
	switch f.Exclude {
	case "", "no others":
	case "current row":
		spec.Exclude = frame.ExcludeCurrentRow
	case "group":
		spec.Exclude = frame.ExcludeGroup
	case "ties":
		spec.Exclude = frame.ExcludeTies
	default:
		return spec, fmt.Errorf("sql: unknown exclusion %q", f.Exclude)
	}
	return spec, nil
}

func (b BoundDef) toBound() (frame.Bound, error) {
	switch b.Kind {
	case "unbounded preceding":
		return frame.Bound{Type: frame.UnboundedPreceding}, nil
	case "preceding":
		return frame.Bound{Type: frame.Preceding, Offset: b.Offset}, nil
	case "current row":
		return frame.Bound{Type: frame.CurrentRow}, nil
	case "following":
		return frame.Bound{Type: frame.Following, Offset: b.Offset}, nil
	case "unbounded following":
		return frame.Bound{Type: frame.UnboundedFollowing}, nil
	}
	return frame.Bound{}, fmt.Errorf("sql: unknown frame bound %q", b.Kind)
}

// funcNameMap maps SQL function names to engine functions, together with
// their argument shapes.
var funcNameMap = map[string]core.FuncName{
	"count":           core.Count, // count(*) and count(distinct) special-cased
	"sum":             core.Sum,
	"avg":             core.Avg,
	"min":             core.Min,
	"max":             core.Max,
	"rank":            core.Rank,
	"dense_rank":      core.DenseRank,
	"percent_rank":    core.PercentRank,
	"row_number":      core.RowNumber,
	"cume_dist":       core.CumeDist,
	"ntile":           core.Ntile,
	"percentile_disc": core.PercentileDisc,
	"percentile_cont": core.PercentileCont,
	"median":          core.PercentileCont,
	"nth_value":       core.NthValue,
	"first_value":     core.FirstValue,
	"last_value":      core.LastValue,
	"lead":            core.Lead,
	"lag":             core.Lag,
}

// toFuncSpec converts a parsed call to a core function spec.
func (c *FuncCall) toFuncSpec(output string) (core.FuncSpec, error) {
	name, ok := funcNameMap[c.Name]
	if !ok {
		return core.FuncSpec{}, fmt.Errorf("sql: unknown function %q", c.Name)
	}
	spec := core.FuncSpec{
		Output:      output,
		OrderBy:     toSortKeys(c.OrderBy),
		Filter:      c.Filter,
		IgnoreNulls: c.IgnoreNulls,
	}
	arg := ""
	if len(c.Args) > 0 {
		arg = c.Args[0]
	}
	switch name {
	case core.Count:
		switch {
		case c.Star:
			spec.Name = core.CountStar
		case c.Distinct:
			spec.Name = core.CountDistinct
			spec.Arg = arg
		default:
			spec.Name = core.Count
			spec.Arg = arg
		}
	case core.Sum:
		spec.Name = core.Sum
		if c.Distinct {
			spec.Name = core.SumDistinct
		}
		spec.Arg = arg
	case core.Avg:
		spec.Name = core.Avg
		if c.Distinct {
			spec.Name = core.AvgDistinct
		}
		spec.Arg = arg
	case core.Min, core.Max:
		// MIN(DISTINCT) == MIN.
		spec.Name = name
		spec.Arg = arg
	case core.PercentileDisc, core.PercentileCont:
		spec.Name = name
		if c.Name == "median" {
			spec.Fraction = 0.5
		} else {
			if !c.HasNumber {
				return spec, fmt.Errorf("sql: %s requires a fraction argument", c.Name)
			}
			spec.Fraction = c.Number
		}
	case core.Ntile:
		spec.Name = name
		if !c.HasNumber {
			return spec, fmt.Errorf("sql: ntile requires a bucket count")
		}
		spec.N = int64(c.Number)
	case core.NthValue:
		spec.Name = name
		spec.Arg = arg
		if !c.HasNumber {
			return spec, fmt.Errorf("sql: nth_value requires n")
		}
		spec.N = int64(c.Number)
	case core.Lead, core.Lag:
		spec.Name = name
		spec.Arg = arg
		if c.HasNumber {
			spec.N = int64(c.Number)
		}
	default:
		spec.Name = name
		spec.Arg = arg
	}
	return spec, nil
}
