package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/server/api"
)

const mutCSV = `k,d,g,v
1,2024-01-01,a,10
2,2024-01-02,a,20
3,2024-01-03,b,30
4,2024-01-04,b,40
5,2024-01-05,a,50
`

// mutCSVAfter is mutCSV with the two test batches already applied: the
// mutated dataset and a fresh registration of this file must answer every
// query byte-identically (position semantics: upserts stay in place, the
// deleted row's successors shift up, appends land at the tail).
const mutCSVAfter = `k,d,g,v
1,2024-01-01,a,10
2,2024-02-01,a,25
4,2024-01-04,b,
5,2024-01-05,a,50
6,2024-01-06,b,60
`

func mustMutate(t *testing.T, c *api.Client, name string, req api.MutateRequest) *api.MutateResponse {
	t.Helper()
	resp, err := c.Mutate(context.Background(), name, req)
	if err != nil {
		t.Fatalf("mutate %s: %v", name, err)
	}
	return resp
}

func wantAPIError(t *testing.T, err error, status int, code api.ErrorCode) {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want *api.Error with HTTP %d %s", err, status, code)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("got HTTP %d %s, want HTTP %d %s", ae.Status, ae.Code, status, code)
	}
}

// TestMutationsEndToEnd drives the mutation surface over HTTP: a keyed
// dataset takes append/upsert/delete batches, answers queries identically to
// a fresh registration of the post-mutation data, reports live rows and
// epochs, and rejects stale epochs with 409.
func TestMutationsEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info, err := c.UploadCSVKeyed(ctx, "live", "k", []byte(mutCSV))
	if err != nil {
		t.Fatal(err)
	}
	if info.KeyColumn != "k" || info.Rows != 5 {
		t.Fatalf("bad keyed dataset info: %+v", info)
	}

	// Warm the cache before mutating: untouched-partition reuse across
	// epochs must not change any answer (the equivalence harness checks
	// bytes; here we check the HTTP layer wires the epochs through).
	const sql = `select k, sum(v) over (partition by g order by k rows between 1 preceding and current row) as s,
	             rank(order by v) over (partition by g order by k) as r from live`
	if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
		t.Fatal(err)
	}

	resp := mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpAppend, Row: map[string]string{"k": "6", "d": "2024-01-06", "g": "b", "v": "60"}},
		{Op: api.OpUpsert, Row: map[string]string{"k": "2", "d": "2024-02-01", "g": "a", "v": "25"}},
		{Op: api.OpDelete, Row: map[string]string{"k": "3"}},
	}})
	if resp.Epoch != 1 || resp.Applied != 3 || resp.Rows != 5 {
		t.Fatalf("bad mutate response: %+v", resp)
	}

	// Second batch: an upsert that NULLs v (absent column = NULL).
	resp = mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpUpsert, Row: map[string]string{"k": "4", "d": "2024-01-04", "g": "b"}},
	}})
	if resp.Epoch != 2 || resp.Rows != 5 {
		t.Fatalf("bad mutate response: %+v", resp)
	}

	// The mutated dataset must answer exactly like a fresh registration of
	// the post-mutation rows.
	mustUpload(t, c, "rebuilt", mutCSVAfter)
	got, err := c.Query(ctx, api.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(ctx, api.QueryRequest{SQL: strings.ReplaceAll(sql, "from live", "from rebuilt")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("mutated dataset has %d rows, rebuilt %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] || cellNull(got, i, j) != cellNull(want, i, j) {
				t.Fatalf("row %d col %d: mutated %q (null=%v) != rebuilt %q (null=%v)",
					i, j, got.Rows[i][j], cellNull(got, i, j), want.Rows[i][j], cellNull(want, i, j))
			}
		}
	}

	// Stale expected epoch: 409 conflict, nothing applied.
	stale := int64(0)
	_, err = c.Mutate(ctx, "live", api.MutateRequest{
		ExpectedEpoch: &stale,
		Mutations:     []api.MutationSpec{{Op: api.OpDelete, Row: map[string]string{"k": "1"}}},
	})
	wantAPIError(t, err, 409, api.CodeConflict)

	// The matching epoch applies.
	match := int64(2)
	resp = mustMutate(t, c, "live", api.MutateRequest{
		ExpectedEpoch: &match,
		Mutations:     []api.MutationSpec{{Op: api.OpDelete, Row: map[string]string{"k": "1"}}},
	})
	if resp.Epoch != 3 || resp.Rows != 4 {
		t.Fatalf("bad conditional mutate response: %+v", resp)
	}

	// Failure atomicity: a bad cell in the second mutation rolls back the
	// whole batch — same rows, same epoch.
	_, err = c.Mutate(ctx, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpAppend, Row: map[string]string{"k": "7", "g": "a", "v": "70"}},
		{Op: api.OpUpsert, Row: map[string]string{"k": "5", "g": "a", "v": "not-a-number"}},
	}})
	wantAPIError(t, err, 400, api.CodeInvalidArgument)
	_, err = c.Mutate(ctx, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpAppend, Row: map[string]string{"k": "7", "typo": "oops"}},
	}})
	wantAPIError(t, err, 400, api.CodeInvalidArgument)
	_, err = c.Mutate(ctx, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: "replace", Row: map[string]string{"k": "7"}},
	}})
	wantAPIError(t, err, 400, api.CodeInvalidArgument)
	_, err = c.Mutate(ctx, "nope", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpDelete, Row: map[string]string{"k": "1"}},
	}})
	wantAPIError(t, err, 404, api.CodeNotFound)

	// Datasets registered without a key column are append-only.
	mustUpload(t, c, "plain", mutCSV)
	resp = mustMutate(t, c, "plain", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpAppend, Row: map[string]string{"k": "6", "g": "b", "v": "60"}},
	}})
	if resp.Rows != 6 {
		t.Fatalf("append-only append: %+v", resp)
	}
	_, err = c.Mutate(ctx, "plain", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpUpsert, Row: map[string]string{"k": "1", "g": "a", "v": "11"}},
	}})
	wantAPIError(t, err, 400, api.CodeInvalidArgument)

	// The dataset listing reports live rows and epochs, not the base.
	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]api.DatasetInfo{}
	for _, d := range list {
		byName[d.Name] = d
	}
	if d := byName["live"]; d.Rows != 4 || d.Epoch != 3 || d.KeyColumn != "k" {
		t.Fatalf("live listing: %+v", d)
	}

	// And the delta families count the batches, the conflict and the
	// overlay.
	m := scrapeMetrics(t, c)
	for _, family := range []string{"windowd_delta_batches_total", "windowd_delta_conflicts_total", "windowd_delta_rows"} {
		if v, ok := m.Value(family); !ok || v == 0 {
			t.Fatalf("%s = %v (present %v), want > 0", family, v, ok)
		}
	}
}

// TestEmptyMutationCellIsNull sends one row through /v1 with an empty cell
// in every column but the key, and one row the way windowcli -append sends a
// CSV row whose cells are empty: with those cells left out. Both read back
// as NULL in every such column, as the CSV reader reads an empty cell. BOOL,
// which no CSV column infers to, is checked on parseCell itself.
func TestEmptyMutationCellIsNull(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "live", "k", []byte("k,d,i,f,s\n1,2024-01-01,7,1.5,x\n")); err != nil {
		t.Fatal(err)
	}
	mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpAppend, Row: map[string]string{"k": "2", "d": "", "i": "", "f": "", "s": ""}},
		{Op: api.OpAppend, Row: map[string]string{"k": "3"}},
	}})
	got, err := c.Query(ctx, api.QueryRequest{SQL: `select k, d, i, f, s, row_number() over (order by k) as rn from live`})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("read back %d rows, want 3", len(got.Rows))
	}
	for i, row := range got.Rows {
		for j, name := range []string{"d", "i", "f", "s"} {
			if null, want := cellNull(got, i, j+1), row[0] != "1"; null != want {
				t.Errorf("k=%s column %s: %q null=%v, want null=%v", row[0], name, row[j+1], null, want)
			}
		}
	}
	for _, tc := range []struct {
		kind   core.Kind
		isDate bool
	}{{core.Int64, false}, {core.Int64, true}, {core.Float64, false}, {core.String, false}, {core.Bool, false}} {
		v, err := parseCell(tc.kind, tc.isDate, "")
		if err != nil || !v.Null || v.Kind != tc.kind {
			t.Errorf("parseCell(%v, date=%v, \"\") = %+v, %v; want a NULL %v", tc.kind, tc.isDate, v, err, tc.kind)
		}
	}
}

// TestCompactionFreesRegisteredTable registers a keyed dataset, applies one
// batch and compacts it. The new generation holds every row, so nothing may
// keep the registration-time table reachable: the dataset keeps only its
// schema.
func TestCompactionFreesRegisteredTable(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.UploadCSVKeyed(ctx, "live", "k", []byte(mutCSV)); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.lookup("live")
	registered, err := ds.buf.Snapshot().Table() // clean: the registered table itself
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(registered, func(*core.Table) { close(freed) })
	registered = nil
	mustMutate(t, c, "live", api.MutateRequest{Mutations: []api.MutationSpec{
		{Op: api.OpDelete, Row: map[string]string{"k": "3"}},
	}})
	if swapped, _, err := ds.buf.Compact(); err != nil || !swapped {
		t.Fatalf("compact: swapped=%v err=%v", swapped, err)
	}
	for range 10 {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the registration-time table is still reachable after a compaction")
}

// TestEpochSwapRaceStress runs 16 reader goroutines against a dataset whose
// writer rewrites every row's v to the batch number while a fast background
// compactor swaps frozen generations underneath. Each batch is atomic and
// sets all rows to one value, so any snapshot-consistent response must see
// min(v) == max(v) over the whole table in every row; a reader observing a
// torn epoch fails. Afterwards pooled scratch must balance (gets == puts)
// and at least one generation swap must actually have happened.
func TestEpochSwapRaceStress(t *testing.T) {
	_, c := newTestServer(t, Config{
		MaxConcurrent:   8,
		TaskSize:        64,
		CompactRows:     8,
		CompactInterval: 2 * time.Millisecond,
	})
	ctx := context.Background()

	const nRows = 48
	var sb strings.Builder
	sb.WriteString("k,g,v\n")
	for i := 0; i < nRows; i++ {
		fmt.Fprintf(&sb, "%d,%c,0\n", i, 'a'+byte(i%3))
	}
	if _, err := c.UploadCSVKeyed(ctx, "ds", "k", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}

	before := arena.Snapshot()
	countersBefore := scrapeMetrics(t, c)

	const sql = `select min(v) over (order by k rows between unbounded preceding and unbounded following) as lo,
	             max(v) over (order by k rows between unbounded preceding and unbounded following) as hi from ds`
	const batches = 25
	const readers = 16

	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		for b := 1; b <= batches; b++ {
			muts := make([]api.MutationSpec, nRows)
			for i := 0; i < nRows; i++ {
				muts[i] = api.MutationSpec{Op: api.OpUpsert, Row: map[string]string{
					"k": strconv.Itoa(i),
					"g": string(rune('a' + i%3)),
					"v": strconv.Itoa(b),
				}}
			}
			if _, err := c.Mutate(ctx, "ds", api.MutateRequest{Mutations: muts}); err != nil {
				writerErr = fmt.Errorf("batch %d: %w", b, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-done:
					if it > 0 {
						return
					}
				default:
				}
				resp, err := c.Query(ctx, api.QueryRequest{SQL: sql})
				if err != nil {
					errs[g] = fmt.Errorf("iter %d: %w", it, err)
					return
				}
				if len(resp.Rows) != nRows {
					errs[g] = fmt.Errorf("iter %d: %d rows, want %d", it, len(resp.Rows), nRows)
					return
				}
				v := resp.Rows[0][0]
				for r, row := range resp.Rows {
					if row[0] != v || row[1] != v {
						errs[g] = fmt.Errorf("iter %d: torn epoch: row %d lo=%s hi=%s, row 0 saw %s",
							it, r, row[0], row[1], v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}

	// Quiesced: the final answer is the last batch's value everywhere.
	resp, err := c.Query(ctx, api.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][1]; got != strconv.Itoa(batches) {
		t.Fatalf("final max(v)=%s, want %d", got, batches)
	}

	counters := scrapeMetrics(t, c)
	moved := func(name string) float64 {
		a, _ := counters.Value(name)
		b, _ := countersBefore.Value(name)
		return a - b
	}
	if n := moved("windowd_delta_batches_total"); n < batches {
		t.Fatalf("only %v batches recorded, want >= %d", n, batches)
	}
	if moved("windowd_delta_compactions_total") == 0 {
		t.Fatal("background compactor never swapped a generation during the stress run")
	}

	// Every pooled buffer borrowed across the swaps must be back.
	deltas := poolDeltas(before, arena.Snapshot())
	for name, d := range deltas {
		if d.Gets != d.Puts || d.BytesInFlight != 0 {
			t.Errorf("pool %s leaked across epoch swaps: gets=%d puts=%d bytes_in_flight=%+d",
				name, d.Gets, d.Puts, d.BytesInFlight)
		}
	}
}
