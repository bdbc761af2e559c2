package server

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"holistic/internal/server/api"
)

// groupedCSV generates a keyed table of groups partitions with skewed sizes
// (1 to 12 rows): k is the mutation key, g the partition column.
func groupedCSV(groups int) string {
	rng := rand.New(rand.NewSource(29))
	var b strings.Builder
	b.WriteString("k,g,ts,cat,qty,price\n")
	k := 0
	for g := 0; g < groups; g++ {
		for i := 1 + g%12; i > 0; i-- {
			fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d.5\n", k, g, rng.Intn(1000), rng.Intn(5), rng.Intn(9), rng.Intn(100))
			k++
		}
	}
	return b.String()
}

// fiveFunctionSQL is the many-partitions statement shape: one function per
// probe family over one partitioned window, framed preceding rows back.
func fiveFunctionSQL(preceding int) string {
	return fmt.Sprintf(`select k, count(distinct cat) over w as cd, percentile_disc(0.5 order by price) over w as pd,
		rank(order by price) over w as r, dense_rank(order by price) over w as dr, sum(distinct qty) over w as sd
		from grouped window w as (partition by g order by ts rows between %d preceding and current row)`, preceding)
}

// TestReadOnlyStatementsRetainNoResults pins the result cache's admission
// rule: on a dataset that has never applied a mutation batch, a statement
// leaves nothing in the cache that only an identical statement could read.
// Twenty never-repeating frames over 500 partitions leave the entry count
// and the bytes exactly where the first statement — which built the sort and
// the trees — left them; once a batch is applied, result vectors are
// admitted and a repeated statement is answered from them.
func TestReadOnlyStatementsRetainNoResults(t *testing.T) {
	const groups, functions = 500, 5
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "grouped", "k", []byte(groupedCSV(groups))); err != nil {
		t.Fatal(err)
	}
	query := func(preceding int) *api.QueryResponse {
		t.Helper()
		resp, err := c.Query(ctx, api.QueryRequest{SQL: fiveFunctionSQL(preceding), IncludeTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	query(1)
	first := s.cache.Stats()
	for preceding := 2; preceding <= 21; preceding++ {
		query(preceding)
		if st := s.cache.Stats(); st.Entries != first.Entries || st.Bytes != first.Bytes || st.Misses != first.Misses {
			t.Fatalf("statement %d on a never-mutated dataset grew the cache: %d entries / %d bytes / %d misses, the first statement left %d / %d / %d",
				preceding, st.Entries, st.Bytes, st.Misses, first.Entries, first.Bytes, first.Misses)
		}
	}

	// One batch later the same statements admit their result vectors, and
	// an identical statement is answered from them for every partition.
	mustMutate(t, c, "grouped", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpUpsert, Row: map[string]string{"k": "0", "g": "0", "ts": "1", "cat": "1", "qty": "1", "price": "1.5"}},
	}})
	query(1)
	if st := s.cache.Stats(); st.Entries < first.Entries+groups*functions {
		t.Fatalf("after a mutation the cache holds %d entries, want the %d before plus %d result vectors",
			st.Entries, first.Entries, groups*functions)
	}
	before := s.cache.Stats()
	again := query(1)
	after := s.cache.Stats()
	if after.Misses != before.Misses || after.Hits-before.Hits < groups*functions {
		t.Fatalf("identical statement on a mutated dataset: %d misses, %d hits, want 0 and at least %d",
			after.Misses-before.Misses, after.Hits-before.Hits, groups*functions)
	}
	if want := fmt.Sprintf("result_hits=%d", groups); strings.Count(again.Trace, want) != functions {
		t.Fatalf("trace of the repeated statement does not report %s for each of %d functions:\n%s", want, functions, again.Trace)
	}
}

// TestEvalHistogramObservesOncePerStatement pins the unit of observation of
// windowd_eval_duration_seconds: one per function per statement, not one
// per (partition, function), and a many-partition trace stays short.
func TestEvalHistogramObservesOncePerStatement(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "grouped", "k", []byte(groupedCSV(2_000))); err != nil {
		t.Fatal(err)
	}
	count := func() float64 {
		v, _ := scrapeMetrics(t, c).Value("windowd_eval_duration_seconds_count", "function=rank", "engine=mst")
		return v
	}
	for i := 1; i <= 3; i++ {
		before := count()
		resp, err := c.Query(ctx, api.QueryRequest{SQL: fiveFunctionSQL(i), IncludeTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := count() - before; got != 1 {
			t.Fatalf("statement %d over 2,000 partitions observed eval_duration_seconds{rank} %v times, want 1", i, got)
		}
		if lines := strings.Count(resp.Trace, "\n"); lines >= 200 {
			t.Fatalf("trace of a 2,000-partition statement has %d lines, want under 200:\n%s", lines, resp.Trace)
		}
	}
}
