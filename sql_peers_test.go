package holistic

import (
	"math"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/lattice"
	"holistic/internal/oracle"
)

// TestRunSQLPeerFrames runs SQL's default frame over every kind of ORDER BY
// — two keys, a STRING key, a FLOAT64 key, DESC — and RANGE frames over keys
// at the int64 limits and NULLs, and checks each answer against the oracle.
// The limit rows also check written answers: a NULL is at no distance from
// another NULL and farther than any offset from every number, and a DESC key
// keeps its distances.
func TestRunSQLPeerFrames(t *testing.T) {
	nulls := func(rows ...int) []bool {
		m := make([]bool, 12)
		for _, r := range rows {
			m[r] = true
		}
		return m
	}
	tab := MustNewTable(
		NewInt64Column("b", []int64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, nil),
		NewInt64Column("d", []int64{3, 1, 3, 2, 0, 1, 3, 2, 1, 3, 1, 2}, nulls(4)),
		NewInt64Column("e", []int64{1, 2, 1, 1, 2, 2, 0, 1, 5, 1, 5, 7}, nulls(6)),
		NewInt64Column("v", []int64{5, 7, 1, 0, 2, 8, 4, 0, 6, 3, 9, 1}, nulls(3, 7)),
		NewStringColumn("n", []string{"b", "a", "c", "b", "", "a", "c", "b", "a", "d", "c", ""}, nulls(4, 11)),
		NewFloat64Column("f", []float64{1.5, -2, 0, math.Copysign(0, -1), math.NaN(), 1.5, 7, math.Inf(1), 0, -2, 3.25, 0}, nulls(8)),
	)
	limits := func(xs ...any) *Table {
		vals, isNull := make([]int64, len(xs)), make([]bool, len(xs))
		for i, x := range xs {
			if x == nil {
				isNull[i] = true
			} else {
				vals[i] = x.(int64)
			}
		}
		return MustNewTable(NewInt64Column("x", vals, isNull))
	}
	de := []oracle.SortKey{{Column: "d"}, {Column: "e"}}
	x, xDesc := []oracle.SortKey{{Column: "x"}}, []oracle.SortKey{{Column: "x", Desc: true}}
	rangeFrame := func(pre, fol int64) *frame.Spec {
		return &frame.Spec{Mode: frame.Range, Start: frame.Bound{Type: frame.Preceding, Offset: pre},
			End: frame.Bound{Type: frame.Following, Offset: fol}}
	}
	cases := []struct {
		sql  string
		tab  *Table
		win  oracle.Window
		fn   oracle.Func
		want []int64 // nil: the oracle's answers only
	}{
		{sql: "select row_number() over (order by d, e) as o from t", tab: tab,
			win: oracle.Window{OrderBy: de}, fn: oracle.Func{Name: "row_number"}},
		{sql: "select rank() over (order by d, e) as o from t", tab: tab,
			win: oracle.Window{OrderBy: de}, fn: oracle.Func{Name: "rank"}},
		{sql: "select lag(v) over (order by d, e) as o from t", tab: tab,
			win: oracle.Window{OrderBy: de}, fn: oracle.Func{Name: "lag", Arg: "v", N: 1}},
		{sql: "select count(*) over (partition by b order by d, e) as o from t", tab: tab,
			win: oracle.Window{PartitionBy: []string{"b"}, OrderBy: de}, fn: oracle.Func{Name: "count(*)"}},
		{sql: "select rank() over (order by n) as o from t", tab: tab,
			win: oracle.Window{OrderBy: []oracle.SortKey{{Column: "n"}}}, fn: oracle.Func{Name: "rank"}},
		{sql: "select sum(v) over (order by f) as o from t", tab: tab,
			win: oracle.Window{OrderBy: []oracle.SortKey{{Column: "f"}}}, fn: oracle.Func{Name: "sum", Arg: "v"}},
		{sql: "select row_number() over (order by f desc) as o from t", tab: tab,
			win: oracle.Window{OrderBy: []oracle.SortKey{{Column: "f", Desc: true}}}, fn: oracle.Func{Name: "row_number"}},
		{sql: "select count(*) over (order by x) as o from t", tab: limits(int64(math.MaxInt64), nil, int64(5)),
			win: oracle.Window{OrderBy: x}, fn: oracle.Func{Name: "count(*)"}, want: []int64{2, 3, 1}},
		{sql: "select count(*) over (order by x desc range between 0 preceding and 0 following) as o from t",
			tab: limits(int64(math.MinInt64), int64(math.MinInt64+1), int64(5)),
			win: oracle.Window{OrderBy: xDesc, Frame: rangeFrame(0, 0)}, fn: oracle.Func{Name: "count(*)"}, want: []int64{1, 1, 1}},
		{sql: "select count(*) over (order by x range between 1 preceding and 1 following) as o from t",
			tab: limits(int64(math.MaxInt64-1), nil, int64(5), int64(math.MaxInt64)),
			win: oracle.Window{OrderBy: x, Frame: rangeFrame(1, 1)}, fn: oracle.Func{Name: "count(*)"}, want: []int64{2, 1, 1, 2}},
	}
	for _, c := range cases {
		res, err := RunSQL(c.sql, map[string]*Table{"t": c.tab})
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		var otab oracle.Table
		for _, col := range c.tab.Columns() {
			otab = append(otab, lattice.Column(col))
		}
		got := lattice.Column(res.Column("o"))
		for row, w := range oracle.Eval(otab, c.win, c.fn) {
			if !oracle.Identical(got.Value(row), w) {
				t.Errorf("%s, row %d: got %+v, the oracle gives %+v", c.sql, row, got.Value(row), w)
			}
			if c.want != nil && !oracle.Identical(got.Value(row), oracle.Value{Kind: oracle.Int64, I: c.want[row]}) {
				t.Errorf("%s, row %d: got %+v, want %d", c.sql, row, got.Value(row), c.want[row])
			}
		}
	}
}
