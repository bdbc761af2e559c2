package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"holistic/internal/csvio"
	windowd "holistic/internal/server"
	"holistic/internal/server/api"
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

// TestRemoteCSVStreams runs -server's CSV writer on a live body from the real
// handler and holds it to the CSV windowcli wrote from a fully decoded
// response: the result spans three 1,024-row chunks, its LEAD is NULL at each
// partition's last row (so the body carries "nulls") and its strings need
// CSV quoting.
func TestRemoteCSVStreams(t *testing.T) {
	s := windowd.New(windowd.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &api.Client{BaseURL: ts.URL}
	ctx := context.Background()

	var data strings.Builder
	data.WriteString("k,g,v,s\n")
	words := []string{"plain", `"a,b"`, `"say ""hi"""`, "x y"}
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&data, "%d,%d,%d,%s\n", i, i%7, i*37%1000, words[i%len(words)])
	}
	if _, err := c.UploadCSV(ctx, "t", []byte(data.String())); err != nil {
		t.Fatal(err)
	}
	req := api.QueryRequest{SQL: `select k, s, lead(v) over (partition by g order by k rows between current row and unbounded following) as nx from t`}

	resp, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Nulls == nil {
		t.Fatal("the result holds no NULL")
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(resp.Columns)
	cw.WriteAll(resp.Rows)

	body, err := c.QueryBody(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	var got, trace bytes.Buffer
	if err := writeCSV(body, &got, &trace); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || trace.Len() != 0 {
		t.Fatalf("streamed CSV (%d bytes, trace %q) differs from the decoded response's (%d bytes)", got.Len(), trace.String(), want.Len())
	}
	if lines := strings.Count(got.String(), "\n"); lines != 3001 {
		t.Fatalf("streamed CSV has %d lines, want 3001", lines)
	}
}
