// Package oracle is the reference every window-function answer is checked
// against: a naive per-frame evaluator, the paper's naive-recomputation
// baseline (§6), written directly from the SQL definitions. For every row it
// materialises the frame, drops the rows FILTER and NULL arguments remove,
// sorts what is left and reads the answer off it — O(n²·w), for tests only.
//
// It shares no code with the evaluator. It takes plain typed columns and a
// plain spec, and of this module it imports only frame's types and constants
// (TestIndependence enforces that). Its value rules are SQL's: NULLs are
// equal to each other and sort as the largest values unless NullsSmallest;
// −0.0 equals 0.0; NaN equals NaN and sorts above every number, +Inf
// included; and under a RANGE offset a NULL key is at no distance from
// another NULL and farther than any offset from every number.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"

	"holistic/internal/frame"
)

// Kind is a column's SQL type.
type Kind int

// The column kinds.
const (
	Int64 Kind = iota
	Float64
	String
	Bool
)

// Column is a named column of one kind: the slice of that kind holds its
// values, and Nulls, when not nil, flags its NULLs.
type Column struct {
	Name   string
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
}

// Table is a set of equal-length columns.
type Table []Column

// SortKey is one ORDER BY item.
type SortKey struct {
	Column        string
	Desc          bool
	NullsSmallest bool
}

// Func is one window function call. Name is the SQL name in lower case —
// "count(*)", "count(distinct)", "percentile_disc" — and the other fields
// are its argument, function-level ORDER BY, percentile fraction, N of
// NTH_VALUE, NTILE and LEAD/LAG, FILTER column, IGNORE NULLS and frame.
type Func struct {
	Name        string
	Arg         string
	OrderBy     []SortKey
	Fraction    float64
	N           int64
	Filter      string
	IgnoreNulls bool
	Frame       *frame.Spec // nil: the window's frame
}

// Window is one OVER clause. A nil Frame is SQL's default frame.
type Window struct {
	PartitionBy []string
	OrderBy     []SortKey
	Frame       *frame.Spec
}

// Value is one SQL value.
type Value struct {
	Null bool
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

func (t Table) col(name string) *Column {
	for i := range t {
		if t[i].Name == name {
			return &t[i]
		}
	}
	panic(fmt.Sprintf("oracle: no column %q", name))
}

// Value is the column's value at row.
func (c *Column) Value(row int) Value {
	v := Value{Kind: c.Kind, Null: c.Nulls != nil && c.Nulls[row]}
	if !v.Null {
		switch c.Kind {
		case Int64:
			v.I = c.Ints[row]
		case Float64:
			v.F = c.Floats[row]
		case String:
			v.S = c.Strs[row]
		default:
			v.B = c.Bools[row]
		}
	}
	return v
}

// Identical reports whether a and b are the same value bit for bit: two
// NULLs whatever their kinds, else floats by their bits, so −0.0 differs
// from 0.0 and one NaN from another. The program's answers must agree with
// the oracle's, and with each other, this way.
func Identical(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

func (v Value) number() float64 {
	if v.Kind == Int64 {
		return float64(v.I)
	}
	return v.F
}

// boolInt is 1 for true, 0 for false.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compare orders two non-NULL values of one kind: −0.0 = 0.0, NaN = NaN
// and NaN above every other number, false before true.
func compare(a, b Value) int {
	switch a.Kind {
	case Int64:
		return cmp.Compare(a.I, b.I)
	case Float64:
		if an, bn := math.IsNaN(a.F), math.IsNaN(b.F); an || bn {
			return boolInt(an) - boolInt(bn)
		}
		return cmp.Compare(a.F, b.F)
	case String:
		return cmp.Compare(a.S, b.S)
	}
	return boolInt(a.B) - boolInt(b.B)
}

// rowOrder compares rows by keys: NULLs are the largest values unless
// NullsSmallest, and Desc reverses the whole order. Rows that compare 0 are
// peers.
func (t Table) rowOrder(keys []SortKey) func(a, b int) int {
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = t.col(k.Column)
	}
	return func(a, b int) int {
		for i, k := range keys {
			x, y := cols[i].Value(a), cols[i].Value(b)
			r := boolInt(x.Null) - boolInt(y.Null)
			if k.NullsSmallest {
				r = -r
			}
			if !x.Null && !y.Null {
				r = compare(x, y)
			}
			if k.Desc {
				r = -r
			}
			if r != 0 {
				return r
			}
		}
		return 0
	}
}

// ranked returns rows sorted by keys, ties in row order, and numbers them
// in id: ids ascend with the order, and peers — rows whose keys are all
// equal, the rows PARTITION BY, DISTINCT and peer groups put together —
// share one.
func (t Table) ranked(rows []int, keys []SortKey, id []int) []int {
	order := t.rowOrder(keys)
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b int) int { return cmp.Or(order(a, b), cmp.Compare(a, b)) })
	for i, r := range rows {
		id[r] = 0
		if i > 0 {
			id[r] = id[rows[i-1]] + boolInt(order(rows[i-1], r) != 0)
		}
	}
	return rows
}

// frameOf is the frame f runs under: its own, the window's, or SQL's
// default — RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW under an
// ORDER BY, the whole partition without one.
func frameOf(w Window, f Func) frame.Spec {
	switch {
	case f.Frame != nil:
		return *f.Frame
	case w.Frame != nil:
		return *w.Frame
	case len(w.OrderBy) > 0:
		return frame.Spec{Mode: frame.Range, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}}
	}
	return frame.Spec{Mode: frame.Rows, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.UnboundedFollowing}}
}

// evaluation is one Eval call's state; the per-row slices are indexed by
// table row.
type evaluation struct {
	t     Table
	f     Func
	kept  []bool // f reads the row: FILTER passes it and its input is not NULL
	peer  []int  // window ORDER BY peer group, numbered within the partition
	key   []int  // f's ORDER BY peer group, numbered within the partition
	class []int  // the argument's value, numbered within the partition
	mark  []int  // the last row whose frame holds the row, plus one
}

// Eval returns f's value at every row of t under window w.
func Eval(t Table, w Window, f Func) []Value {
	n := len(t[0].Ints) + len(t[0].Floats) + len(t[0].Strs) + len(t[0].Bools)
	e := evaluation{t: t, f: f, kept: make([]bool, n), peer: make([]int, n), key: make([]int, n), class: make([]int, n), mark: make([]int, n)}
	var partKeys []SortKey
	for _, c := range w.PartitionBy {
		partKeys = append(partKeys, SortKey{Column: c})
	}
	all, partOf := make([]int, n), make([]int, n)
	for row := range all {
		all[row], e.kept[row] = row, t.kept(f, row)
	}
	parts := map[int][]int{}
	for _, row := range t.ranked(all, partKeys, partOf) {
		parts[partOf[row]] = append(parts[partOf[row]], row)
	}
	keys := f.OrderBy
	if len(keys) == 0 {
		keys = w.OrderBy
	}
	spec := frameOf(w, f)
	out := make([]Value, n)
	for _, part := range parts {
		part = t.ranked(part, w.OrderBy, e.peer)
		byKey := t.ranked(part, keys, e.key)
		if f.Arg != "" {
			t.ranked(part, []SortKey{{Column: f.Arg}}, e.class)
		}
		coords := e.coordinates(w, spec, part)
		for pos, row := range part {
			e.markFrame(spec, part, coords, pos)
			var in []int // the frame rows f reads, in f's order
			for _, r := range byKey {
				if e.mark[r] == row+1 && e.kept[r] {
					in = append(in, r)
				}
			}
			out[row] = e.eval(row, in)
		}
	}
	return out
}

// coordinate is a point of the scale a frame's bounds are measured on.
// tier places the points that are not numbers: UNBOUNDED at ±3, past
// everything; the NULLs of a RANGE key at ±2, the end of the order they sort
// to; a key moved past an int64 limit by an offset at ±1. Every other point
// has tier 0 and its value in at.
type coordinate struct {
	tier int
	at   int64
}

// atMost reports whether c lies at or before d.
func (c coordinate) atMost(d coordinate) bool {
	return c.tier < d.tier || c.tier == d.tier && c.at <= d.at
}

// coordinates returns each position's point on the sorted partition's
// scale: the position (ROWS); the peer group (GROUPS, and RANGE without an
// offset bound, whose CURRENT ROW is the peer group whatever the ORDER BY);
// or the one INT64 key, oriented so that it ascends, a NULL beyond every
// number (RANGE with an offset bound).
func (e *evaluation) coordinates(w Window, spec frame.Spec, part []int) []coordinate {
	offset := func(b frame.Bound) bool { return b.Type == frame.Preceding || b.Type == frame.Following }
	keyed := spec.Mode == frame.Range && (offset(spec.Start) || offset(spec.End))
	c := make([]coordinate, len(part))
	for i, row := range part {
		switch {
		case spec.Mode == frame.Rows:
			c[i].at = int64(i)
		case !keyed:
			c[i].at = int64(e.peer[row])
		default:
			k := w.OrderBy[0]
			switch v := e.t.col(k.Column).Value(row); {
			case v.Null && k.NullsSmallest != k.Desc:
				c[i].tier = -2
			case v.Null:
				c[i].tier = 2
			case k.Desc:
				c[i].at = ^v.I // reverses the order and keeps distances
			default:
				c[i].at = v.I
			}
		}
	}
	return c
}

// markFrame marks the frame of the row at pos: the rows whose point lies
// between its two bounds, less those its EXCLUDE clause removes.
func (e *evaluation) markFrame(spec frame.Spec, part []int, coords []coordinate, pos int) {
	row := part[pos]
	lo := bound(spec.Start, coords[pos], row, -1)
	hi := bound(spec.End, coords[pos], row, 1)
	for i, r := range part {
		excluded := false
		switch spec.Exclude {
		case frame.ExcludeCurrentRow:
			excluded = r == row
		case frame.ExcludeGroup:
			excluded = e.peer[r] == e.peer[row]
		case frame.ExcludeTies:
			excluded = r != row && e.peer[r] == e.peer[row]
		}
		if lo.atMost(coords[i]) && coords[i].atMost(hi) && !excluded {
			e.mark[r] = row + 1
		}
	}
}

// bound is the point a frame bound reaches from the current row's point my;
// side is -1 for the start bound, 1 for the end bound. An offset below 0
// counts as 0, and a NULL is at no distance from another NULL.
func bound(b frame.Bound, my coordinate, row int, side int) coordinate {
	off := b.Offset
	if b.OffsetFn != nil {
		off = max(b.OffsetFn(row), 0)
	}
	switch b.Type {
	case frame.Preceding:
		off = -off
	case frame.Following:
	case frame.CurrentRow:
		return my
	default:
		return coordinate{tier: 3 * side}
	}
	if my.tier != 0 {
		return my
	}
	switch s := my.at + off; {
	case off > 0 && s < my.at:
		return coordinate{tier: 1}
	case off < 0 && s > my.at:
		return coordinate{tier: -1}
	default:
		return coordinate{at: s}
	}
}

// kept reports whether f reads row: FILTER passes it and, for the functions
// that skip NULL inputs, its input is not NULL.
func (t Table) kept(f Func, row int) bool {
	if f.Filter != "" {
		if v := t.col(f.Filter).Value(row); v.Null || !v.B {
			return false
		}
	}
	input := ""
	switch f.Name {
	case "count", "count(distinct)", "sum(distinct)", "avg(distinct)", "sum", "avg", "min", "max":
		input = f.Arg
	case "percentile_disc", "percentile_cont":
		input = f.OrderBy[0].Column
	case "nth_value", "first_value", "last_value", "lead", "lag":
		if f.IgnoreNulls {
			input = f.Arg
		}
	}
	return input == "" || !t.col(input).Value(row).Null
}

// eval is f's value at row, whose frame holds the rows in — those f reads,
// in f's order.
func (e *evaluation) eval(row int, in []int) Value {
	f := e.f
	// count counts the rows in whose place in f's order against row, c,
	// passes keep.
	count := func(keep func(c, r int) bool) (n int) {
		for _, r := range in {
			if keep(cmp.Compare(e.key[r], e.key[row]), r) {
				n++
			}
		}
		return n
	}
	before := func(c, r int) bool { return c < 0 }
	beforeOrTied := func(c, r int) bool { return c < 0 || c == 0 && r < row }
	// distinct keeps the first row of each id.
	distinct := func(id []int) (d []int) {
		seen := map[int]bool{}
		for _, r := range in {
			if !seen[id[r]] {
				seen[id[r]] = true
				d = append(d, r)
			}
		}
		return d
	}
	var arg *Column
	if f.Arg != "" {
		arg = e.t.col(f.Arg)
	}
	null := Value{Null: true}
	integer := func(n int64) Value { return Value{Kind: Int64, I: n} }
	float := func(x float64) Value { return Value{Kind: Float64, F: x} }
	at := func(c *Column, k int) Value {
		if k < 0 || k >= len(in) {
			return null
		}
		return c.Value(in[k])
	}

	switch f.Name {
	case "count(*)", "count":
		return integer(int64(len(in)))
	case "count(distinct)":
		return integer(int64(len(distinct(e.class))))
	case "sum", "avg", "sum(distinct)", "avg(distinct)":
		if f.Name == "sum(distinct)" || f.Name == "avg(distinct)" {
			in = distinct(e.class)
		}
		if len(in) == 0 {
			return null
		}
		avg := f.Name == "avg" || f.Name == "avg(distinct)"
		// An INT64 SUM wraps modulo 2⁶⁴. Any other sum is NaN (math.NaN())
		// when a NaN or both infinities are summed, the infinity when one is,
		// −0.0 when only −0.0 is, else the exact sum — over the count for
		// AVG — rounded once to nearest even.
		// The exact sum is a whole number of units 2⁻¹⁰⁷⁴, as is every
		// finite float64 and every int64, so it adds up in a big.Int and
		// takes one division, by 2¹⁰⁷⁴ and the count, at the end.
		sum, inf, negZeros, isum := new(big.Int), 0.0, 0, int64(0)
		unit := new(big.Int)
		for _, r := range in {
			v := arg.Value(r)
			isum += v.I
			switch {
			case v.Kind == Int64:
				sum.Add(sum, unit.Lsh(unit.SetInt64(v.I), 1074))
			case math.IsNaN(v.F) || math.IsInf(v.F, 0):
				inf += v.F
			default:
				negZeros += boolInt(v.F == 0 && math.Signbit(v.F))
				frac, exp := math.Frexp(v.F) // v = m·2^(exp−53), m a whole number
				m, sh := int64(frac*(1<<53)), exp-53+1074
				if sh < 0 {
					m, sh = m>>-sh, 0 // a subnormal: the bits shifted out are zero
				}
				sum.Add(sum, unit.Lsh(unit.SetInt64(m), uint(sh)))
			}
		}
		div := new(big.Int).Lsh(big.NewInt(1), 1074)
		if avg {
			div.Mul(div, big.NewInt(int64(len(in))))
		}
		x, _ := new(big.Rat).SetFrac(sum, div).Float64()
		switch {
		case arg.Kind == Int64 && !avg:
			return integer(isum)
		case math.IsNaN(inf):
			return float(math.NaN())
		case inf != 0:
			return float(inf)
		case negZeros == len(in):
			return float(math.Copysign(0, -1))
		}
		return float(x)
	case "min", "max":
		if len(in) == 0 {
			return null
		}
		// The first row in (value, table row) order for MIN, the last for
		// MAX, so of equal values (−0.0 and 0.0, NaNs) the table row picks.
		best := in[0]
		for _, r := range in[1:] {
			if c := cmp.Or(e.class[r]-e.class[best], r-best); c < 0 && f.Name == "min" || c > 0 && f.Name == "max" {
				best = r
			}
		}
		return arg.Value(best)
	case "rank":
		return integer(int64(count(before) + 1))
	case "row_number":
		return integer(int64(count(beforeOrTied) + 1))
	case "dense_rank":
		below := 0
		for i, r := range in {
			if e.key[r] < e.key[row] && (i == 0 || e.key[in[i-1]] != e.key[r]) {
				below++
			}
		}
		return integer(int64(below + 1))
	case "percent_rank":
		if len(in) <= 1 {
			return float(0)
		}
		return float(float64(count(before)) / float64(len(in)-1))
	case "cume_dist":
		if len(in) == 0 {
			return null
		}
		return float(float64(count(func(c, r int) bool { return c <= 0 })) / float64(len(in)))
	case "ntile":
		// n rows go into f.N buckets as equal as can be; the first n mod
		// f.N buckets hold one row more.
		idx, n := int64(slices.Index(in, row)), int64(len(in))
		if idx < 0 {
			return null
		}
		for bucket, end := int64(1), int64(0); ; bucket++ {
			end += n / f.N
			if bucket <= n%f.N {
				end++
			}
			if idx < end {
				return integer(bucket)
			}
		}
	case "percentile_disc":
		// The first value whose position k (from 1) reaches p·n.
		k := 1
		for float64(k) < f.Fraction*float64(len(in)) {
			k++
		}
		return at(e.t.col(f.OrderBy[0].Column), k-1)
	case "percentile_cont":
		// Interpolates between positions ⌊p·(n−1)⌋ and ⌈p·(n−1)⌉ (from 0).
		if len(in) == 0 {
			return null
		}
		c := e.t.col(f.OrderBy[0].Column)
		rn := f.Fraction * float64(len(in)-1)
		k := int(rn)
		v := at(c, k).number()
		if frac := rn - float64(k); frac > 0 && k+1 < len(in) {
			v += frac * (at(c, k+1).number() - v)
		}
		return float(v)
	case "nth_value":
		return at(arg, int(f.N)-1)
	case "first_value":
		return at(arg, 0)
	case "last_value":
		return at(arg, len(in)-1)
	case "lead", "lag":
		// The row's own place among the rows f reads, moved by N (1 when
		// 0), forward for LEAD and backward for LAG.
		off := max(f.N, 1)
		if f.Name == "lag" {
			off = -off
		}
		return at(arg, count(beforeOrTied)+int(off))
	}
	panic(fmt.Sprintf("oracle: unknown function %q", f.Name))
}
