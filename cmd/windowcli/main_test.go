package main

import (
	"bytes"
	"strings"
	"testing"

	"holistic"
	"holistic/internal/csvio"
)

func TestParseSortKey(t *testing.T) {
	if k := parseSortKey("x"); k.Column != "x" || k.Desc {
		t.Fatalf("asc key = %+v", k)
	}
	if k := parseSortKey("-x"); k.Column != "x" || !k.Desc {
		t.Fatalf("desc key = %+v", k)
	}
}

func TestParseEngine(t *testing.T) {
	cases := map[string]holistic.Engine{
		"mst":         holistic.EngineMergeSortTree,
		"incremental": holistic.EngineIncremental,
		"naive":       holistic.EngineNaive,
		"ostree":      holistic.EngineOSTree,
		"segtree":     holistic.EngineSegmentTree,
		"anything":    holistic.EngineMergeSortTree,
	}
	for s, want := range cases {
		if got := parseEngine(s); got != want {
			t.Fatalf("parseEngine(%q) = %v", s, got)
		}
	}
}

func TestParseBound(t *testing.T) {
	same := func(a, b holistic.Bound) bool {
		return a.Type == b.Type && a.Offset == b.Offset
	}
	if b, err := parseBound("unbounded", true); err != nil || !same(b, holistic.UnboundedPreceding()) {
		t.Fatalf("unbounded preceding = (%+v, %v)", b, err)
	}
	if b, err := parseBound("unbounded", false); err != nil || !same(b, holistic.UnboundedFollowing()) {
		t.Fatalf("unbounded following = (%+v, %v)", b, err)
	}
	if b, err := parseBound("current", true); err != nil || !same(b, holistic.CurrentRow()) {
		t.Fatalf("current = (%+v, %v)", b, err)
	}
	if b, err := parseBound("42", true); err != nil || !same(b, holistic.Preceding(42)) {
		t.Fatalf("42 preceding = (%+v, %v)", b, err)
	}
	if b, err := parseBound("7", false); err != nil || !same(b, holistic.Following(7)) {
		t.Fatalf("7 following = (%+v, %v)", b, err)
	}
	if _, err := parseBound("x", true); err == nil {
		t.Fatal("bad offset must fail")
	}
}

func TestBuildFuncCoverage(t *testing.T) {
	// Every supported -func value must build (given a -value).
	names := []string{
		"count_star", "count", "sum", "avg", "min", "max",
		"count_distinct", "sum_distinct", "avg_distinct",
		"rank", "dense_rank", "percent_rank", "row_number", "cume_dist",
		"ntile", "percentile_disc", "percentile_cont", "median",
		"first_value", "last_value", "nth_value", "lead", "lag",
	}
	*value = "v"
	defer func() { *value = "" }()
	for _, name := range names {
		*funcName = name
		if _, err := buildFunc(); err != nil {
			t.Fatalf("buildFunc(%q): %v", name, err)
		}
	}
	*funcName = "bogus"
	if _, err := buildFunc(); err == nil {
		t.Fatal("bogus function must fail")
	}
	// Value-requiring functions without -value must fail.
	*value = ""
	*funcName = "sum"
	if _, err := buildFunc(); err == nil {
		t.Fatal("sum without -value must fail")
	}
}

func TestRunFlagsEndToEnd(t *testing.T) {
	table := holistic.MustNewTable(
		holistic.NewInt64Column("d", []int64{1, 2, 3, 4}, nil),
		holistic.NewInt64Column("v", []int64{4, 3, 2, 1}, nil),
	)
	*orderBy = "d"
	*mode = "rows"
	*preceding = "1"
	*following = "current"
	*funcName = "count_distinct"
	*value = "v"
	*asName = "cd"
	*partition = ""
	*exclude = ""
	defer func() { *orderBy, *funcName, *value = "", "", "" }()
	res, err := runFlags(table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("cd") == nil || res.Column("d") == nil {
		t.Fatal("result must contain input plus the new column")
	}
	want := []int64{1, 2, 2, 2}
	for i, w := range want {
		if got := res.Column("cd").Int64(i); got != w {
			t.Fatalf("cd[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestLocalDateOutputs runs statements through the local -query path and
// checks dates follow a column's source, not its output name: a rank aliased
// to a date column's name prints numbers, a renamed date column and the value
// functions over one print ISO dates.
func TestLocalDateOutputs(t *testing.T) {
	file, err := csvio.Read(strings.NewReader("d,g,v\n2024-01-01,a,10\n2024-01-02,a,20\n2024-01-03,b,30\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { *query = "" }()
	cases := []struct{ sql, want string }{
		{`select rank() over (order by v) as d from csv`, "d\n1\n2\n3\n"},
		{`select d as day, first_value(d) over (order by v rows between current row and unbounded following) as fd from csv`,
			"day,fd\n2024-01-01,2024-01-01\n2024-01-02,2024-01-02\n2024-01-03,2024-01-03\n"},
		{`select percentile_disc(0.5 order by d) over (order by v rows between current row and current row) as p, v from csv`,
			"p,v\n2024-01-01,10\n2024-01-02,20\n2024-01-03,30\n"},
	}
	for _, tc := range cases {
		*query = tc.sql
		result, dates, err := evalLocal(file)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var out bytes.Buffer
		if err := csvio.Write(&out, result, dates); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want {
			t.Fatalf("%s\ngot:\n%swant:\n%s", tc.sql, out.String(), tc.want)
		}
	}
}
