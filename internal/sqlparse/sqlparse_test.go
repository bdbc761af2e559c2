package sqlparse

import (
	"strings"
	"testing"

	"holistic/internal/core"
	"holistic/internal/frame"
)

func TestParsePaperLeaderboardQuery(t *testing.T) {
	// The §2.4 showcase query, verbatim except for unsupported projections.
	q, err := Parse(`
		select dbsystem, tps,
		  count(distinct dbsystem) over w,
		  rank(order by tps desc) over w,
		  first_value(tps order by tps desc) over w,
		  first_value(dbsystem order by tps desc) over w,
		  lead(tps order by tps desc) over w,
		  lead(dbsystem order by tps desc) over w
		from tpcc_results
		window w as (order by submission_date
		  range between unbounded preceding and current row)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "tpcc_results" {
		t.Fatalf("from = %q", q.From)
	}
	if len(q.Items) != 8 {
		t.Fatalf("items = %d", len(q.Items))
	}
	if q.Items[0].Column != "dbsystem" || q.Items[1].Column != "tps" {
		t.Fatal("pass-through columns wrong")
	}
	cd := q.Items[2].Func
	if cd == nil || cd.Name != "count" || !cd.Distinct || cd.Args[0] != "dbsystem" {
		t.Fatalf("count distinct parsed wrong: %+v", cd)
	}
	rk := q.Items[3].Func
	if rk == nil || rk.Name != "rank" || len(rk.OrderBy) != 1 || !rk.OrderBy[0].Desc {
		t.Fatalf("rank parsed wrong: %+v", rk)
	}
	// All functions must share the named window.
	for i := 2; i < 8; i++ {
		if q.Items[i].Func.Window == nil {
			t.Fatalf("item %d window not resolved", i)
		}
		if q.Items[i].Func.Window != q.Items[2].Func.Window {
			t.Fatalf("item %d does not share window w", i)
		}
	}
	w := q.Items[2].Func.Window
	if len(w.OrderBy) != 1 || w.OrderBy[0].Column != "submission_date" {
		t.Fatalf("window order wrong: %+v", w.OrderBy)
	}
	if w.Frame == nil || w.Frame.Mode != "range" ||
		w.Frame.Start.Kind != "unbounded preceding" || w.Frame.End.Kind != "current row" {
		t.Fatalf("frame wrong: %+v", w.Frame)
	}
}

func TestParsePercentileWithInterval(t *testing.T) {
	q, err := Parse(`
		select percentile_disc(0.99 order by delay) over (
		  order by l_shipdate
		  range between '1 week' preceding and current row) as p99
		from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	fc := q.Items[0].Func
	if fc.Number != 0.99 || !fc.HasNumber {
		t.Fatalf("fraction = %v", fc.Number)
	}
	if q.Items[0].Alias != "p99" {
		t.Fatalf("alias = %q", q.Items[0].Alias)
	}
	fr := fc.Window.Frame
	if fr.Start.Kind != "preceding" || fr.Start.Offset != 7 {
		t.Fatalf("interval start = %+v", fr.Start)
	}
}

func TestParseIntervalUnits(t *testing.T) {
	cases := map[string]int64{
		"3":        3,
		"1 day":    1,
		"2 days":   2,
		"1 week":   7,
		"2 weeks":  14,
		"1 month":  30,
		"1 year":   365,
		"3 months": 90,
	}
	for lit, want := range cases {
		got, err := parseIntervalLiteral(lit)
		if err != nil || got != want {
			t.Fatalf("interval %q = (%d, %v), want %d", lit, got, err, want)
		}
	}
	if _, err := parseIntervalLiteral("1 fortnight"); err == nil {
		t.Fatal("expected error for unsupported unit")
	}
}

func TestParseFilterIgnoreNullsExclusion(t *testing.T) {
	q, err := Parse(`
		select rank(order by a) filter (where active) over (
		    partition by g, h order by d desc nulls last
		    rows between 5 preceding and 2 following exclude ties),
		  nth_value(x, 3 order by a) ignore nulls over (order by d groups current row)
		from t`)
	if err != nil {
		t.Fatal(err)
	}
	f0 := q.Items[0].Func
	if f0.Filter != "active" {
		t.Fatalf("filter = %q", f0.Filter)
	}
	w0 := f0.Window
	if len(w0.PartitionBy) != 2 || w0.PartitionBy[1] != "h" {
		t.Fatalf("partition = %v", w0.PartitionBy)
	}
	if !w0.OrderBy[0].Desc || !w0.OrderBy[0].NullsSet || w0.OrderBy[0].NullsFirst {
		t.Fatalf("order key = %+v", w0.OrderBy[0])
	}
	if w0.Frame.Exclude != "ties" || w0.Frame.Start.Offset != 5 || w0.Frame.End.Offset != 2 {
		t.Fatalf("frame = %+v", w0.Frame)
	}
	f1 := q.Items[1].Func
	if !f1.IgnoreNulls || f1.Number != 3 || f1.Args[0] != "x" {
		t.Fatalf("nth_value = %+v", f1)
	}
	if f1.Window.Frame.Mode != "groups" || f1.Window.Frame.Start.Kind != "current row" ||
		f1.Window.Frame.End.Kind != "current row" {
		t.Fatalf("groups frame = %+v", f1.Window.Frame)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select rank(order by x) over from t",
		"select rank(order by x) over w from t", // unresolved window
		"select f(x) over (order by d) from t window w as (order by",
		"select count(distinct a) over (rows between 1 preceding) from t", // missing AND
		"select a from t garbage",
		"select percentile_disc(order by x) over (order by d) from t trailing",
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err == nil {
			// Some of these fail at bind time instead.
			if _, e2 := Execute(q, map[string]*core.Table{}, core.Options{}); e2 == nil {
				t.Fatalf("expected error for %q", src)
			}
		}
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	table := core.MustNewTable(
		core.NewInt64Column("d", []int64{1, 2, 3, 4, 5, 6}, nil),
		core.NewInt64Column("v", []int64{5, 3, 5, 1, 3, 2}, nil),
	)
	out, err := Parse(`
		select d, count(distinct v) over w as cd, rank(order by v) over w
		from t
		window w as (order by d rows between 2 preceding and current row)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(out, map[string]*core.Table{"t": table}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 6 {
		t.Fatalf("rows = %d", res.Rows())
	}
	// Pass-through column keeps its values.
	for i := 0; i < 6; i++ {
		if res.Column("d").Int64(i) != int64(i+1) {
			t.Fatal("pass-through column corrupted")
		}
	}
	wantCD := []int64{1, 2, 2, 3, 3, 3}
	for i, want := range wantCD {
		if got := res.Column("cd").Int64(i); got != want {
			t.Fatalf("cd[%d] = %d, want %d", i, got, want)
		}
	}
	// Unaliased rank column gets the function name.
	if res.Column("rank") == nil {
		t.Fatal("missing default-named rank column")
	}
	wantRank := []int64{1, 1, 2, 1, 2, 2}
	for i, want := range wantRank {
		if got := res.Column("rank").Int64(i); got != want {
			t.Fatalf("rank[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExecuteWindowGrouping(t *testing.T) {
	// Two distinct windows => two operator runs; same window => shared.
	table := core.MustNewTable(
		core.NewInt64Column("d", []int64{1, 2, 3}, nil),
		core.NewInt64Column("v", []int64{9, 8, 7}, nil),
	)
	q, err := Parse(`
		select sum(v) over (order by d rows between 1 preceding and current row),
		       count(*) over (order by d rows between 1 preceding and current row),
		       sum(v) over (order by d rows between unbounded preceding and current row) as total
		from t`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(q, map[string]*core.Table{"t": table}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First two share a window and get default names sum, count.
	if res.Column("sum") == nil || res.Column("count") == nil || res.Column("total") == nil {
		names := []string{}
		for _, c := range res.Columns() {
			names = append(names, c.Name())
		}
		t.Fatalf("column names = %v", names)
	}
	wantSum := []int64{9, 17, 15}
	wantTotal := []int64{9, 17, 24}
	for i := 0; i < 3; i++ {
		if res.Column("sum").Int64(i) != wantSum[i] {
			t.Fatalf("sum[%d] = %d", i, res.Column("sum").Int64(i))
		}
		if res.Column("total").Int64(i) != wantTotal[i] {
			t.Fatalf("total[%d] = %d", i, res.Column("total").Int64(i))
		}
	}
}

func TestToFrameSpecAndBounds(t *testing.T) {
	fr := &FrameDef{Mode: "range",
		Start:   BoundDef{Kind: "preceding", Offset: 9},
		End:     BoundDef{Kind: "unbounded following"},
		Exclude: "group"}
	spec, err := fr.toFrameSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != frame.Range || spec.Start.Offset != 9 ||
		spec.End.Type != frame.UnboundedFollowing || spec.Exclude != frame.ExcludeGroup {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := (&FrameDef{Mode: "bogus"}).toFrameSpec(); err == nil {
		t.Fatal("expected mode error")
	}
}

func TestDuplicateDefaultNames(t *testing.T) {
	table := core.MustNewTable(core.NewInt64Column("v", []int64{1, 2}, nil))
	q, err := Parse(`
		select sum(v) over (rows between unbounded preceding and unbounded following),
		       sum(v) over (rows between unbounded preceding and unbounded following)
		from t`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(q, map[string]*core.Table{"t": table}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("sum") == nil || res.Column("sum_2") == nil {
		t.Fatal("expected uniquified default names sum, sum_2")
	}
}

func TestCaseInsensitivityAndComments(t *testing.T) {
	q, err := Parse(strings.ToUpper(`select rank(order by v) over w from t window w as (order by d)`))
	if err == nil {
		// Upper-casing also upper-cases identifiers; just check it parses
		// and resolves the upper-cased window name case-insensitively.
		if q.Items[0].Func.Window == nil {
			t.Fatal("window not resolved case-insensitively")
		}
	} else {
		t.Fatal(err)
	}
	if _, err := Parse("select v -- a comment\nfrom t"); err != nil {
		t.Fatal(err)
	}
}

// TestDateOutputs checks the date flag is resolved per select item from its
// source: projections inherit their column's, value-returning functions
// their value argument's, everything else is not a date — under the output
// names the executor assigns, uniquified ones included.
func TestDateOutputs(t *testing.T) {
	q, err := Parse(`
		select d, d, v as d2, rank() over w as day,
		       min(d) over w, max(v) over w, lead(d) over w as nxt,
		       nth_value(d, 2) over w as nth, last_value(g) over w as lg,
		       percentile_disc(0.5 order by d) over w as pd,
		       percentile_cont(0.5 order by d) over w as pc,
		       count(distinct d) over w as cd, sum(d) over w as sd
		from t window w as (order by day)`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DateOutputs(q, map[string]bool{"d": true, "day": true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"d": true, "d_2": true, "min": true, "nxt": true, "nth": true, "pd": true}
	if len(got) != len(want) {
		t.Fatalf("DateOutputs = %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("DateOutputs = %v, want %v", got, want)
		}
	}
}
