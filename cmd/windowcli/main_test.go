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
	res, valueCol, err := runFlags(table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if valueCol != "" {
		t.Fatalf("count_distinct returns new values, got value column %q", valueCol)
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

// TestFuncDateOutputs runs single functions through the local -func path: a
// function that returns a date column's values (FIRST_VALUE, MIN) prints ISO
// dates under its -as name, one that counts (COUNT(DISTINCT)) prints numbers.
func TestFuncDateOutputs(t *testing.T) {
	file, err := csvio.Read(strings.NewReader("d,v\n2024-01-01,10\n2024-01-02,20\n2024-01-03,10\n"))
	if err != nil {
		t.Fatal(err)
	}
	*orderBy, *mode, *preceding, *following, *partition, *exclude, *value = "d", "rows", "1", "current", "", "", "d"
	defer func() { *orderBy, *funcName, *value, *asName = "", "", "", "result" }()
	cases := []struct{ fn, want string }{
		{"first_value", "d,v,out\n2024-01-01,10,2024-01-01\n2024-01-02,20,2024-01-01\n2024-01-03,10,2024-01-02\n"},
		{"min", "d,v,out\n2024-01-01,10,2024-01-01\n2024-01-02,20,2024-01-01\n2024-01-03,10,2024-01-02\n"},
		{"count_distinct", "d,v,out\n2024-01-01,10,1\n2024-01-02,20,2\n2024-01-03,10,2\n"},
	}
	for _, tc := range cases {
		*funcName, *asName = tc.fn, "out"
		result, dates, err := evalLocal(file)
		if err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		var out bytes.Buffer
		if err := csvio.Write(&out, result, dates); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want {
			t.Fatalf("-func %s\ngot:\n%swant:\n%s", tc.fn, out.String(), tc.want)
		}
		if file.DateColumns["out"] {
			t.Fatal("evalLocal must not mark -as in the file's own date set")
		}
	}
}
