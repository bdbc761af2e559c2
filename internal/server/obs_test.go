package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/delta"
	"holistic/internal/obs"
	"holistic/internal/server/api"
)

// scrapeMetrics fetches and parses the /v1/metrics exposition.
func scrapeMetrics(t *testing.T, c *api.Client) *obs.ParsedMetrics {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	p, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("metrics do not parse as Prometheus text exposition: %v\n%s", err, text)
	}
	return p
}

// TestErrorEnvelope checks every failure shape carries the JSON envelope
// with the right machine code — handler errors and the mux's own 404/405.
func TestErrorEnvelope(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	wantCode := func(err error, status int, code api.ErrorCode) {
		t.Helper()
		var ae *api.Error
		if !asAPIError(err, &ae) {
			t.Fatalf("got %T (%v), want *api.Error", err, err)
		}
		if ae.Status != status || ae.Code != code {
			t.Fatalf("got status=%d code=%q, want %d %q", ae.Status, ae.Code, status, code)
		}
	}

	_, err := c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) from nosuch`})
	wantCode(err, http.StatusNotFound, api.CodeNotFound)

	_, err = c.Query(ctx, api.QueryRequest{SQL: `this is not sql`})
	wantCode(err, http.StatusBadRequest, api.CodeInvalidArgument)

	// Unknown route: the mux's 404 must come back as the envelope too.
	for _, path := range []string{"/nosuch", "/v1/nosuch"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Fatalf("GET %s: status=%d code=%q, want 404 %q", path, resp.StatusCode, env.Error.Code, api.CodeNotFound)
		}
	}

	// Wrong method on a known route: 405 envelope plus an Allow header.
	resp, err := http.Get(c.BaseURL + api.PathQuery)
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("GET /v1/query: status=%d code=%q, want 405 %q", resp.StatusCode, env.Error.Code, api.CodeMethodNotAllowed)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("405 Allow header %q does not offer POST", allow)
	}
}

func asAPIError(err error, out **api.Error) bool {
	ae, ok := err.(*api.Error)
	if ok {
		*out = ae
	}
	return ok
}

func decodeEnvelope(t *testing.T, resp *http.Response) api.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("non-2xx body is not the error envelope: %v", err)
	}
	return env
}

// TestLegacyAliases checks the pre-versioning unversioned paths are gone:
// each answers with the JSON 404 envelope like any other unknown route.
func TestLegacyAliases(t *testing.T) {
	_, c := newTestServer(t, Config{})
	mustUpload(t, c, "t", smallCSV)

	body := `{"sql":"select rank(order by v) over (order by d) as r from t"}`
	for _, rt := range []struct{ method, path string }{
		{http.MethodPost, "/query"},
		{http.MethodPost, "/explain"},
		{http.MethodPost, "/datasets/t"},
		{http.MethodGet, "/datasets"},
		{http.MethodGet, "/healthz"},
	} {
		req, err := http.NewRequest(rt.method, c.BaseURL+rt.path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Fatalf("%s %s: status=%d code=%q, want 404 %q", rt.method, rt.path, resp.StatusCode, env.Error.Code, api.CodeNotFound)
		}
	}
}

// TestMetricsExposition runs queries and checks the scrape parses and
// carries the core series with sane values: request and eval histograms,
// cache events, pool counters, rows returned.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	sql := `select rank(order by v) over (order by d) as r from t`
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}

	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_requests_total", "route=POST /v1/query", "code=200"); !ok || v < 3 {
		t.Fatalf("requests_total{POST /v1/query,200} = %v (%v), want >= 3", v, ok)
	}
	if v, ok := p.Value("windowd_request_duration_seconds_count", "route=POST /v1/query"); !ok || v < 3 {
		t.Fatalf("request_duration_seconds_count = %v (%v), want >= 3", v, ok)
	}
	// Every run evaluates: the dataset has never been mutated, so no result
	// vector is retained and each repeat re-probes the cached tree — one
	// observation per function per statement.
	if v, ok := p.Value("windowd_eval_duration_seconds_count", "function=rank"); !ok || v != 3 {
		t.Fatalf("eval_duration_seconds_count{rank,mst} = %v (%v), want 3", v, ok)
	}
	if v, ok := p.Value("windowd_cache_events_total", "event=hit"); !ok || v == 0 {
		t.Fatalf("cache_events_total{hit} = %v (%v), want > 0 after repeated query", v, ok)
	}
	if v, ok := p.Value("windowd_cache_events_total", "event=miss"); !ok || v == 0 {
		t.Fatalf("cache_events_total{miss} = %v (%v), want > 0 after cold query", v, ok)
	}
	if v, ok := p.Value("windowd_respond_duration_seconds_count"); !ok || v != 3 {
		t.Fatalf("respond_duration_seconds_count = %v (%v), want 3: one per streamed response", v, ok)
	}
	if v, ok := p.Value("windowd_response_aborts_total"); !ok || v != 0 {
		t.Fatalf("response_aborts_total = %v (%v), want the series present at 0", v, ok)
	}
	if v, ok := p.Value("windowd_rows_returned_total"); !ok || v < 15 {
		t.Fatalf("rows_returned_total = %v (%v), want >= 15", v, ok)
	}
	if v, ok := p.Value("windowd_uptime_seconds"); !ok || v <= 0 {
		t.Fatalf("uptime_seconds = %v (%v), want > 0", v, ok)
	}
	if v, ok := p.Value("windowd_datasets"); !ok || v != 1 {
		t.Fatalf("datasets = %v (%v), want 1", v, ok)
	}
	// The query path draws scratch from the shared pools; at least one pool
	// must report gets.
	gets := 0.0
	for _, pool := range []string{"int32", "int64", "uint64", "float64"} {
		if v, ok := p.Value("windowd_pool_gets_total", "pool="+pool); ok {
			gets += v
		}
	}
	if gets == 0 {
		t.Fatal("no pool reported any gets after queries")
	}
}

// TestMetricsMonotonicUnderLoad interleaves concurrent queries with
// concurrent scrapes and checks the request counter never goes backwards
// and every scrape stays parseable.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 8})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	sql := `select rank(order by v) over (order by d) as r from t`

	const rounds = 5
	last := -1.0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
					t.Errorf("query: %v", err)
				}
			}()
		}
		// Scrape concurrently with the queries: parseability under load.
		wg.Add(1)
		go func() {
			defer wg.Done()
			scrapeMetrics(t, c)
		}()
		wg.Wait()

		p := scrapeMetrics(t, c)
		v, ok := p.Value("windowd_requests_total", "route=POST /v1/query", "code=200")
		if !ok {
			t.Fatalf("round %d: requests_total series missing", round)
		}
		if v <= last {
			t.Fatalf("round %d: requests_total went %v -> %v, counter not monotonic", round, last, v)
		}
		last = v
	}
	if want := float64(rounds * 4); last != want {
		t.Fatalf("requests_total{POST /v1/query,200} = %v, want %v", last, want)
	}
}

// TestQueryTrace asks for the span tree over the wire and checks the phases
// documented in DESIGN.md §9 show up.
func TestQueryTrace(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	resp, err := c.Query(ctx, api.QueryRequest{
		SQL:          `select count(distinct v) over (order by d rows between 2 preceding and current row) as cd from t`,
		IncludeTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"partition+order sort", "partition boundaries", "build merge sort tree", "probe"} {
		if !strings.Contains(resp.Trace, phase) {
			t.Fatalf("trace missing phase %q:\n%s", phase, resp.Trace)
		}
	}
	if strings.Contains(resp.Trace, "(unfinished)") {
		t.Fatalf("trace has unfinished spans:\n%s", resp.Trace)
	}

	// Without IncludeTrace the field stays empty (and costs no bytes).
	resp, err = c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from t`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "" {
		t.Fatalf("unrequested trace present: %q", resp.Trace)
	}
}

// TestSnapshotSpans checks the time a query spends getting its snapshot is
// no longer invisible: the trace carries the "snapshot:" spans either way —
// clean=true and nothing copied before the first mutation, clean=false with
// the overlay's size after it — the slow-query log counts it, and the
// materialisation histogram has one observation per query.
func TestSnapshotSpans(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	_, c := newTestServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "live", "k", []byte(mutCSV)); err != nil {
		t.Fatal(err)
	}
	traced := func() string {
		t.Helper()
		resp, err := c.Query(ctx, api.QueryRequest{
			SQL:          `select k, rank(order by v) over (partition by g order by k) as r from live`,
			IncludeTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(resp.Trace, "(unfinished)") {
			t.Fatalf("trace has unfinished spans:\n%s", resp.Trace)
		}
		return resp.Trace
	}
	spanLine := func(trace, name string) string {
		t.Helper()
		for _, line := range strings.Split(trace, "\n") {
			if strings.Contains(line, name) {
				return line
			}
		}
		t.Fatalf("trace has no %q span:\n%s", name, trace)
		return ""
	}

	before := materializations()
	trace := traced()
	if line := spanLine(trace, "snapshot: materialize"); !strings.Contains(line, "clean=true") || !strings.Contains(line, "overlay_rows=0") {
		t.Fatalf("clean dataset's materialize span: %q", line)
	}
	spanLine(trace, "snapshot: view")
	if got := materializations() - before; got != 0 {
		t.Fatalf("a clean snapshot was materialised %d times", got)
	}

	mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpUpsert, Row: map[string]string{"k": "2", "d": "2024-02-01", "g": "a", "v": "25"}},
		{Op: api.OpDelete, Row: map[string]string{"k": "3"}},
	}})
	trace = traced()
	if line := spanLine(trace, "snapshot: materialize"); !strings.Contains(line, "clean=false") || !strings.Contains(line, "rows=4") {
		t.Fatalf("mutated dataset's materialize span: %q", line)
	}
	spanLine(trace, "snapshot: view")
	if got := materializations() - before; got != 1 {
		t.Fatalf("the mutated snapshot was materialised %d times, want once", got)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "snapshot_ms=") || !strings.Contains(logged, "snapshot: materialize") {
		t.Fatalf("slow-query log misses the snapshot's share:\n%s", logged)
	}
	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_snapshot_materialize_seconds_count"); !ok || v != 2 {
		t.Fatalf("snapshot_materialize_seconds_count = %v (%v), want 2: one per query", v, ok)
	}
}

// materializations reads the process-wide count of merged-table builds.
func materializations() int64 { return delta.Counters().Materializations }

// TestSlowQueryLog drives a query over a zero-ish threshold and checks the
// WARN line carries the span tree and the response's share — its time, rows
// and bytes — and the slow-query counter moves.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	_, c := newTestServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	if _, err := c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from t`}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query WARN with a %v threshold:\n%s", time.Nanosecond, logged)
	}
	if !strings.Contains(logged, "partition+order sort") {
		t.Fatalf("slow-query log misses the span tree:\n%s", logged)
	}
	for _, attr := range []string{"elapsed_ms=", "respond_ms=", "rows=5 ", "bytes="} {
		if !strings.Contains(logged, attr) {
			t.Fatalf("slow-query log misses %q:\n%s", attr, logged)
		}
	}
	if strings.Contains(logged, "bytes=0 ") {
		t.Fatalf("slow-query log reports an empty response:\n%s", logged)
	}
	if strings.Count(logged, "slow query") != 1 {
		t.Fatalf("one slow statement logged more than once:\n%s", logged)
	}

	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_slow_queries_total"); !ok || v == 0 {
		t.Fatalf("slow_queries_total = %v (%v), want > 0", v, ok)
	}
}

// lockedWriter serializes concurrent handler writes into one buffer.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// TestRouteLabelCardinality checks the route label is bounded by the route
// table, not by request input: made-up methods and paths all land on the
// one "(unmatched)" series of each request family.
func TestRouteLabelCardinality(t *testing.T) {
	_, c := newTestServer(t, Config{})
	families := []string{"windowd_requests_total{", "windowd_request_duration_seconds_count{", "windowd_response_bytes_total{"}
	count := func() map[string]int {
		n := map[string]int{}
		for id := range scrapeMetrics(t, c).Samples {
			for _, fam := range families {
				if strings.HasPrefix(id, fam) {
					n[fam]++
				}
			}
		}
		return n
	}
	count() // the scrape's own series exist from here on
	before := count()
	for i := 0; i < 100; i++ {
		req, err := http.NewRequest(fmt.Sprintf("FOO%d", i), fmt.Sprintf("%s%s?x=%d", c.BaseURL, api.PathQuery, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("FOO%d %s: status %d, want 405", i, api.PathQuery, resp.StatusCode)
		}
	}
	after := count()
	for _, fam := range families {
		if grew := after[fam] - before[fam]; grew > 1 {
			t.Errorf("%s: 100 made-up methods minted %d series, want at most 1", fam, grew)
		}
	}
	if v, ok := scrapeMetrics(t, c).Value("windowd_requests_total", "route=(unmatched)", "code=405"); !ok || v != 100 {
		t.Fatalf("requests_total{(unmatched),405} = %v (%v), want 100", v, ok)
	}
}
