package main

import (
	"bytes"
	"strings"
	"testing"

	"holistic/internal/csvio"
)

// TestLocalDateOutputs runs statements through the local -query path and
// checks dates follow a column's source, not its output name: a rank aliased
// to a date column's name and a count of distinct dates print numbers; a
// renamed date column, MIN, PERCENTILE_DISC and the value functions over one
// print ISO dates.
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
		{`select d, min(d) over (order by d rows between 1 preceding and current row) as m from csv`,
			"d,m\n2024-01-01,2024-01-01\n2024-01-02,2024-01-01\n2024-01-03,2024-01-02\n"},
		{`select d, count(distinct d) over (order by d rows between 1 preceding and current row) as c from csv`,
			"d,c\n2024-01-01,1\n2024-01-02,2\n2024-01-03,2\n"},
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
