package sqlparse

import (
	"strings"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/plan"
)

// explain renders a statement's plan DAG, as holistic.RenderPlan, /v1/explain and
// windowcli -explain print it.
func explain(t *testing.T, sql string) string {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.RenderText(p.Nodes)
}

func TestExplainLeaderboard(t *testing.T) {
	text := explain(t, `
		select dbsystem,
		  count(distinct dbsystem) over w,
		  rank(order by tps desc) over w,
		  percentile_disc(0.9 order by tps) over (order by tps rows between 10 preceding and current row) as p90
		from tpcc_results
		window w as (order by submission_date
		  range between unbounded preceding and current row)`)
	for _, want := range []string{
		"order (submission_date)",
		"range unbounded preceding .. current row",
		"rows 10 preceding .. current row",
		"prevIdcs occurrence links (Alg. 1)",
		"dense ranks (Fig. 8)",
		"permutation array (Fig. 6)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan missing %q:\n%s", want, text)
		}
	}
	// The two w-functions share one sort; the inline window has its own.
	if n := strings.Count(text, "] sort: "); n != 2 {
		t.Fatalf("expected exactly 2 sorts, got %d:\n%s", n, text)
	}
}

func TestExplainDefaultsAndExclusion(t *testing.T) {
	text := explain(t, `
		select sum(v) over (partition by g),
		       count(distinct v) over (order by d rows between 3 preceding and 1 following exclude ties)
		from t`)
	for _, want := range []string{
		"rows unbounded preceding .. unbounded following", // the default frame without ORDER BY
		"rows 3 preceding .. 1 following exclude ties",
		"partition (g)",
		"segment tree over kept values",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan missing %q:\n%s", want, text)
		}
	}
}

// frameSpecOf resolves a window definition's frame as the binder does.
func frameSpecOf(w *WindowDef) (frame.Spec, error) {
	if w.Frame == nil {
		return defaultFrame(w), nil
	}
	return w.Frame.toFrameSpec()
}

func TestFrameSpecOfDefaults(t *testing.T) {
	withOrder := &WindowDef{OrderBy: []OrderKey{{Column: "d"}}}
	spec, err := frameSpecOf(withOrder)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != frame.Range || spec.End.Type != frame.CurrentRow {
		t.Fatalf("default with order = %+v", spec)
	}
	noOrder := &WindowDef{}
	spec, err = frameSpecOf(noOrder)
	if err != nil {
		t.Fatal(err)
	}
	if spec.End.Type != frame.UnboundedFollowing {
		t.Fatalf("default without order = %+v", spec)
	}
}
