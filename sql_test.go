package holistic

import (
	"strings"
	"testing"
)

func TestRunSQLMatchesBuilderAPI(t *testing.T) {
	table := MustNewTable(
		NewInt64Column("d", []int64{3, 1, 4, 1, 5, 9, 2, 6}, nil),
		NewInt64Column("v", []int64{2, 7, 1, 8, 2, 8, 1, 8}, nil),
	)
	sqlRes, err := RunSQL(`
		select count(distinct v) over w as cd,
		       median(order by v) over w as med,
		       rank(order by v desc) over w as r
		from t
		window w as (order by d rows between 3 preceding and current row)`,
		map[string]*Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	w := Over().OrderBy(Asc("d")).Frame(Rows(Preceding(3), CurrentRow()))
	apiRes, err := Run(table, w,
		CountDistinct("v").As("cd"),
		Median(Asc("v")).As("med"),
		Rank(Desc("v")).As("r"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"cd", "r"} {
		for i := 0; i < table.Rows(); i++ {
			if sqlRes.Column(col).Int64(i) != apiRes.Column(col).Int64(i) {
				t.Fatalf("%s[%d]: sql %d != api %d", col, i,
					sqlRes.Column(col).Int64(i), apiRes.Column(col).Int64(i))
			}
		}
	}
	for i := 0; i < table.Rows(); i++ {
		if sqlRes.Column("med").Float64(i) != apiRes.Column("med").Float64(i) {
			t.Fatalf("med[%d]: sql %v != api %v", i,
				sqlRes.Column("med").Float64(i), apiRes.Column("med").Float64(i))
		}
	}
}

func TestRunSQLErrors(t *testing.T) {
	table := MustNewTable(NewInt64Column("v", []int64{1}, nil))
	tables := map[string]*Table{"t": table}
	cases := []string{
		"not sql at all",
		"select rank(order by v) over (order by v) from missing",
		"select rank(order by nope) over (order by v) from t",
		"select bogus_func(v) over (order by v) from t",
		"select percentile_disc(order by v) over (order by v) from t", // missing fraction
	}
	for _, q := range cases {
		if _, err := RunSQL(q, tables); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestRunSQLFrameDefault(t *testing.T) {
	// No frame clause with ORDER BY => SQL default frame (RANGE UNBOUNDED
	// PRECEDING .. CURRENT ROW), peers included.
	table := MustNewTable(
		NewInt64Column("d", []int64{1, 2, 2, 3}, nil),
		NewInt64Column("v", []int64{1, 1, 2, 3}, nil),
	)
	res, err := RunSQL(`select count(distinct v) over (order by d) as cd from t`,
		map[string]*Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 2, 3}
	for i, wv := range want {
		if got := res.Column("cd").Int64(i); got != wv {
			t.Fatalf("cd[%d] = %d, want %d", i, got, wv)
		}
	}
}

func TestRunSQLOffsetFunctionsSeeOriginalRows(t *testing.T) {
	// Builder-API per-row offsets must receive ORIGINAL row indices even
	// when the window order permutes rows.
	n := 50
	d := make([]int64, n)
	off := make([]int64, n)
	v := make([]int64, n)
	for i := range d {
		d[i] = int64(n - i) // reverse order: window order != input order
		off[i] = int64(i % 7)
		v[i] = int64(i)
	}
	table := MustNewTable(
		NewInt64Column("d", d, nil),
		NewInt64Column("v", v, nil),
	)
	res, err := Run(table,
		Over().OrderBy(Asc("d")).
			Frame(Rows(PrecedingBy(func(row int) int64 { return off[row] }), CurrentRow())),
		CountStar().As("c"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Row i sits at window position n-1-i; its frame covers off[i]+1
		// rows (clamped at the partition start).
		pos := n - 1 - i
		want := int64(pos + 1)
		if o := off[i] + 1; o < want {
			want = o
		}
		if got := res.Column("c").Int64(i); got != want {
			t.Fatalf("row %d: count %d, want %d", i, got, want)
		}
	}
}

func TestRunSQLPassThroughPreservesNulls(t *testing.T) {
	table := MustNewTable(
		NewInt64Column("d", []int64{1, 2, 3}, nil),
		NewFloat64Column("v", []float64{1, 0, 3}, []bool{false, true, false}),
	)
	res, err := RunSQL(`select v, count(v) over (order by d) as c from t`,
		map[string]*Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Column("v").IsNull(1) || res.Column("v").Float64(2) != 3 {
		t.Fatal("pass-through column lost NULLs or values")
	}
	want := []int64{1, 1, 2}
	for i, wv := range want {
		if got := res.Column("c").Int64(i); got != wv {
			t.Fatalf("count[%d] = %d, want %d", i, got, wv)
		}
	}
}

func TestRunSQLLongQueryRoundTrip(t *testing.T) {
	// A many-function statement across two windows must produce all columns
	// in select order.
	table := MustNewTable(
		NewInt64Column("g", []int64{0, 0, 1, 1, 0, 1}, nil),
		NewInt64Column("d", []int64{1, 2, 1, 2, 3, 3}, nil),
		NewFloat64Column("x", []float64{5, 1, 4, 2, 3, 6}, nil),
	)
	res, err := RunSQL(strings.TrimSpace(`
		select g, d,
		  row_number(order by x) over w1 as rn,
		  cume_dist(order by x) over w1 as cdist,
		  ntile(2 order by x) over w1 as bucket,
		  last_value(x order by x) over w1 as biggest,
		  sum(distinct x) over (partition by g order by d rows between unbounded preceding and current row) as sd
		from t
		window w1 as (partition by g order by d rows between 1 preceding and 1 following)`),
		map[string]*Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g", "d", "rn", "cdist", "bucket", "biggest", "sd"} {
		if res.Column(name) == nil {
			t.Fatalf("missing column %q", name)
		}
	}
	cols := res.Columns()
	if cols[0].Name() != "g" || cols[6].Name() != "sd" {
		t.Fatal("columns out of select order")
	}
}

// TestRunSQLMinMaxRejectBool checks that MIN and MAX over a BOOL column fail
// with the core validation error, which names the function and its output.
func TestRunSQLMinMaxRejectBool(t *testing.T) {
	table := MustNewTable(NewInt64Column("d", []int64{1, 2}, nil), NewBoolColumn("b", []bool{true, false}, nil))
	for _, fn := range []string{"min", "max"} {
		_, err := RunSQL("select "+fn+"(b) over (order by d) as m from t", map[string]*Table{"t": table})
		if want := "core: " + fn + ` (m): argument "b" is BOOL`; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s over BOOL: error %v, want one starting %q", fn, err, want)
		}
	}
}
