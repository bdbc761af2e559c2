package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"holistic/internal/arena"
	"holistic/internal/server/api"
)

// poolDeltas captures per-pool counter movement between two snapshots.
func poolDeltas(before, after []arena.PoolStat) map[string]arena.PoolStat {
	prev := make(map[string]arena.PoolStat, len(before))
	for _, s := range before {
		prev[s.Name] = s
	}
	out := make(map[string]arena.PoolStat, len(after))
	for _, s := range after {
		p := prev[s.Name]
		out[s.Name] = arena.PoolStat{
			Name:          s.Name,
			Gets:          s.Gets - p.Gets,
			Puts:          s.Puts - p.Puts,
			Misses:        s.Misses - p.Misses,
			BytesInFlight: s.BytesInFlight - p.BytesInFlight,
		}
	}
	return out
}

// TestPoolRaceStress hammers one server from many goroutines with a mix of
// identical and distinct queries against a cold cache, so concurrent tree
// builds recycle pooled scratch across requests while singleflight joins
// race on the same structures. Run under -race this is the pooling
// contract's torture test; independently of the race detector it checks
// that every response matches the canonical serial answer and that pooled
// buffers all come back (gets == puts, no bytes left in flight).
func TestPoolRaceStress(t *testing.T) {
	s, c := newTestServer(t, Config{MaxConcurrent: 8, TaskSize: 256})
	ctx := context.Background()
	csvData := bigCSV(5_000)
	mustUpload(t, c, "ref", csvData)
	mustUpload(t, c, "ds", csvData)

	queries := []string{
		`select count(distinct v) over (order by v rows between 500 preceding and current row) as x from %s`,
		`select rank(order by v) over (partition by g order by v) as x from %s`,
		`select percentile_disc(0.5 order by v) over (order by v rows between 200 preceding and 200 following) as x from %s`,
		`select max(v) over (order by v rows between unbounded preceding and current row) as x from %s`,
	}

	// Canonical answers come from a twin dataset so the stress below starts
	// against a completely cold cache for "ds".
	canonical := make([]*api.QueryResponse, len(queries))
	for i, q := range queries {
		resp, err := c.Query(ctx, api.QueryRequest{SQL: fmt.Sprintf(q, "ref")})
		if err != nil {
			t.Fatalf("canonical query %d: %v", i, err)
		}
		canonical[i] = resp
	}

	before := arena.Snapshot()

	const goroutines = 16
	const iters = 5
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				resp, err := c.Query(ctx, api.QueryRequest{SQL: fmt.Sprintf(queries[qi], "ds")})
				if err != nil {
					errs[g] = fmt.Errorf("iter %d query %d: %w", it, qi, err)
					return
				}
				want := canonical[qi]
				if len(resp.Rows) != len(want.Rows) {
					errs[g] = fmt.Errorf("iter %d query %d: %d rows, want %d", it, qi, len(resp.Rows), len(want.Rows))
					return
				}
				for r := range resp.Rows {
					for col := range resp.Rows[r] {
						if resp.Rows[r][col] != want.Rows[r][col] {
							errs[g] = fmt.Errorf("iter %d query %d row %d col %d: %q != canonical %q",
								it, qi, r, col, resp.Rows[r][col], want.Rows[r][col])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// Every borrowed buffer must be back: the structures the builds retain
	// are make-allocated, so pooled gets and puts balance once quiesced.
	deltas := poolDeltas(before, arena.Snapshot())
	sawTraffic := false
	for name, d := range deltas {
		if d.Gets != d.Puts || d.BytesInFlight != 0 {
			t.Errorf("pool %s leaked: gets=%d puts=%d bytes_in_flight=%+d", name, d.Gets, d.Puts, d.BytesInFlight)
		}
		if d.Gets > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Fatal("stress run exercised no pooled scratch at all")
	}

	// The counters must surface as metric series.
	m := scrapeMetrics(t, c)
	if v, ok := m.Value("windowd_arena_arenas_total"); !ok || v == 0 {
		t.Fatalf("windowd_arena_arenas_total = %v (present %v), want > 0", v, ok)
	}
	for _, family := range []string{"windowd_pool_gets_total", "windowd_pool_puts_total", "windowd_pool_bytes_in_flight"} {
		if _, ok := m.Value(family, "pool=int32"); !ok {
			t.Fatalf(`metrics lack %s{pool="int32"}`, family)
		}
	}
	_ = s
}
