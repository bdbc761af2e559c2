package server

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"holistic/internal/server/api"
)

// TestExplainStructuredPlan checks /v1/explain: the DAG arrives with its
// text rendering, nodes come in execution order with shared-by annotations,
// and the summary counters match the plan shape.
func TestExplainStructuredPlan(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	sql := `
		select count(distinct g) over w as cd,
		       rank(order by v) over w as r,
		       sum(v) over (partition by g) as s
		from t
		window w as (partition by g order by d)`
	resp, err := c.Explain(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.PlanDAG) == 0 {
		t.Fatal("plan_dag missing")
	}
	// The text is the DAG rendered: every node on its own line, in order.
	lines := strings.Split(strings.TrimSuffix(resp.Plan, "\n"), "\n")
	if len(lines) != len(resp.PlanDAG) {
		t.Fatalf("plan text has %d lines for %d nodes:\n%s", len(lines), len(resp.PlanDAG), resp.Plan)
	}
	for i, n := range resp.PlanDAG {
		if want := "[" + n.ID + "] " + n.Kind + ": " + n.Label; !strings.Contains(lines[i], want) {
			t.Fatalf("plan line %d = %q, want it to render %q", i, lines[i], want)
		}
	}
	if resp.Operators != len(resp.PlanDAG) {
		t.Fatalf("operators = %d, nodes = %d", resp.Operators, len(resp.PlanDAG))
	}
	// The unordered SUM window shares w's sort (its order is the empty
	// prefix and SUM over the INT64 column v is order-insensitive).
	if resp.SortsShared != 1 {
		t.Fatalf("sorts_shared = %d, want 1", resp.SortsShared)
	}
	// First node is the shared sort, serving all three functions.
	first := resp.PlanDAG[0]
	if first.Kind != "sort" || len(first.SharedBy) != 3 {
		t.Fatalf("first node = %+v, want sort shared by 3", first)
	}
	seen := map[string]bool{}
	for _, n := range resp.PlanDAG {
		for _, in := range n.Inputs {
			if !seen[in] {
				t.Fatalf("node %s consumes %s before it is defined", n.ID, in)
			}
		}
		seen[n.ID] = true
	}
	for _, want := range []string{"probe_cd", "probe_r", "probe_s"} {
		if !seen[want] {
			t.Fatalf("missing probe node %s", want)
		}
	}
}

// TestExplainAfterMutation explains a statement over a keyed dataset
// before and after a mutation batch. Explain reads column kinds only, from
// the registered schema, so the mutated dataset is not materialised and the
// plan DAG is the one explained before the batch.
func TestExplainAfterMutation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "live", "k", []byte(mutCSV)); err != nil {
		t.Fatal(err)
	}
	const sql = `select k, sum(distinct v) over (partition by g order by d) as s,
	             rank(order by v) over (partition by g order by d) as r from live`
	before, err := c.Explain(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpUpsert, Row: map[string]string{"k": "2", "d": "2024-02-01", "g": "a", "v": "25"}},
	}})
	made := materializations(t, c)
	after, err := c.Explain(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := materializations(t, c) - made; got != 0 {
		t.Fatalf("an explain materialised the mutated dataset %v times", got)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("the plan changed across a mutation:\n before %+v\n after  %+v", before, after)
	}
}

// TestQueryStatsPlanFields checks that executed queries report the plan
// shape in their stats and that the sharing metrics families expose it.
func TestQueryStatsPlanFields(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	resp, err := c.Query(ctx, api.QueryRequest{SQL: `
		select count(distinct g) over w as cd,
		       count(distinct g) over (partition by g order by d groups 1 preceding) as cd2,
		       rank(order by v) over w as r
		from t
		window w as (partition by g order by d)`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Operators == 0 {
		t.Fatalf("stats.operators = 0: %+v", resp.Stats)
	}
	if resp.Stats.TreesShared < 1 {
		t.Fatalf("stats.trees_shared = %d, want >= 1: %+v", resp.Stats.TreesShared, resp.Stats)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"windowd_plan_shared_sorts",
		"windowd_plan_shared_trees",
		"windowd_plan_shared_preprocess",
	} {
		if !strings.Contains(metrics, family) {
			t.Fatalf("metrics exposition missing %s", family)
		}
	}
}
