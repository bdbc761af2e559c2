package server

import (
	"context"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"holistic/internal/server/api"
)

// catalogue is every metric family /v1/metrics renders: name, type and
// label names (sorted). The server's own registry and obs.Default together.
var catalogue = []string{
	"windowd_admission_in_use gauge",
	"windowd_admission_queue_depth gauge",
	"windowd_admission_timeouts_total counter",
	"windowd_arena_allocated_bytes_total counter",
	"windowd_arena_arenas_total counter",
	"windowd_cache_budget_bytes gauge",
	"windowd_cache_build_seconds_total counter",
	"windowd_cache_bytes gauge",
	"windowd_cache_entries gauge",
	"windowd_cache_events_total counter event",
	"windowd_datasets gauge",
	"windowd_delta_batches_total counter",
	"windowd_delta_compactions_total counter",
	"windowd_delta_conflicts_total counter",
	"windowd_delta_materializations_total counter",
	"windowd_delta_mutations_total counter op",
	"windowd_delta_rows gauge",
	"windowd_eval_duration_seconds histogram function",
	"windowd_inflight_requests gauge",
	"windowd_ingest_intervals_resumed_total counter",
	"windowd_ingest_rows_total counter",
	"windowd_ingest_runs_total counter state",
	"windowd_ingest_segments_written_total counter",
	"windowd_mst_batch_dedup_hits counter",
	"windowd_mst_batch_dedup_hits_family counter family",
	"windowd_mst_batch_diff_queries_family counter family",
	"windowd_mst_batch_leaf_queries_family counter family",
	"windowd_mst_batch_queries counter",
	"windowd_mst_batch_queries_family counter family",
	"windowd_plan_shared_preprocess counter",
	"windowd_plan_shared_sorts counter",
	"windowd_plan_shared_trees counter",
	"windowd_pool_bytes_in_flight gauge pool",
	"windowd_pool_gets_total counter pool",
	"windowd_pool_misses_total counter pool",
	"windowd_pool_puts_total counter pool",
	"windowd_request_duration_seconds histogram route",
	"windowd_requests_total counter code,route",
	"windowd_respond_duration_seconds histogram",
	"windowd_response_aborts_total counter",
	"windowd_response_bytes_total counter route",
	"windowd_rows_returned_total counter",
	"windowd_slow_queries_total counter",
	"windowd_snapshot_materialize_seconds histogram",
	"windowd_uptime_seconds gauge",
}

// labelName matches one label of a series identity, name{k="v",...}.
var labelName = regexp.MustCompile(`[{,]([a-zA-Z_][a-zA-Z0-9_]*)="`)

// TestMetricsCatalogue pins what /v1/metrics declares: the exact set of
// (family, type, label names), a HELP text for each family, and a mention
// of each in DESIGN.md §9.2. A name declared both in the server's registry
// and in obs.Default fails the parse as a duplicate TYPE.
func TestMetricsCatalogue(t *testing.T) {
	_, c := newTestServer(t, Config{})
	// One statement and one scrape first, so the families whose series
	// appear on first use (eval_duration_seconds{function},
	// requests_total{code,route}) show their label names.
	mustUpload(t, c, "t", smallCSV)
	if _, err := c.Query(context.Background(), api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from t`}); err != nil {
		t.Fatal(err)
	}
	scrapeMetrics(t, c)
	p := scrapeMetrics(t, c)

	labels := map[string]map[string]bool{}
	for name := range p.Types {
		labels[name] = map[string]bool{}
	}
	for id := range p.Samples {
		name, _, _ := strings.Cut(id, "{")
		if _, ok := p.Types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found && p.Types[base] == "histogram" {
					name = base
				}
			}
		}
		for _, m := range labelName.FindAllStringSubmatch(id, -1) {
			if m[1] != "le" {
				labels[name][m[1]] = true
			}
		}
	}
	var got []string
	for name, typ := range p.Types {
		keys := make([]string, 0, len(labels[name]))
		for k := range labels[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got = append(got, strings.TrimSpace(name+" "+typ+" "+strings.Join(keys, ",")))
	}
	sort.Strings(got)
	if !slices.Equal(got, catalogue) {
		t.Errorf("families changed:\n got  %q\n want %q", got, catalogue)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "### 9.2 ")
	section, _, _ = strings.Cut(section, "\n### ")
	for name := range p.Types {
		if p.Help[name] == "" {
			t.Errorf("%s has no HELP text", name)
		}
		if !strings.Contains(section, "`"+name+"`") {
			t.Errorf("%s is not documented in DESIGN.md §9.2", name)
		}
	}
}
