package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"holistic/internal/server/api"
)

// traced is the per-layer pass. Against one fresh server it runs a quarter of
// the timed operations (at least four) over HTTP, alternating include_trace off and on and
// decoding each response's stats, with the server's counters scraped once
// before and once after. Then it shuts the server down and times calls into
// each layer's public functions in this process, on the same generated data.
func (h *harness) traced(w *workload) (res result, err error) {
	p, err := h.prepare(w)
	if err != nil {
		return res, err
	}
	if err := h.verify(p); err != nil {
		return res, err
	}
	m := map[string]metric{}
	res = result{Correct: true, Metrics: m}
	if err := h.tracedHTTP(p, &res); err != nil {
		return res, err
	}
	if err := h.layers(p, m); err != nil {
		return res, err
	}
	return res, nil
}

func (h *harness) tracedHTTP(p *prepared, res *result) (err error) {
	root := h.tr.begin("setup", 0, -1)
	tgt, cl, _, err := h.setUp(p)
	h.tr.end(root)
	if err != nil {
		return err
	}
	defer func() {
		cl.close()
		err = errors.Join(err, tgt.stop())
	}()
	ops := p.timed[:min(len(p.timed), max(4, len(p.timed)/4))]
	before, err := cl.scrape()
	if err != nil {
		return err
	}
	var lat [2][]float64 // cycle latency by include_trace off/on
	var eval, respond, mutate, query, size []float64
	rows := 0
	for i, o := range ops {
		res.Attempted++
		tracedOp := i%2 == 1
		start := time.Now()
		t, err := runOp(cl, o, tracedOp)
		mid, end := start.Add(t.mutate), start.Add(t.mutate+t.query)
		sp := h.tr.add("client.op", i, -1, start, end)
		if o.Mutations != nil {
			h.tr.add("server.mutate", i, sp, start, mid)
		}
		h.tr.add("server.query", i, sp, mid, end)
		if err != nil {
			res.Failed++
			res.Correct = res.Correct && !errors.Is(err, errRowCount)
			fmt.Fprintf(h.log, "%s: traced op %d failed: %v\n", p.w.Name, i, err)
			continue
		}
		var resp struct {
			Stats api.QueryStats `json:"stats"`
		}
		if err := json.Unmarshal(cl.buf[:t.bytes], &resp); err != nil {
			return err
		}
		lat[i%2] = append(lat[i%2], ms(t.mutate+t.query))
		mutate = append(mutate, ms(t.mutate))
		query = append(query, ms(t.query))
		eval = append(eval, resp.Stats.ElapsedMillis)
		respond = append(respond, ms(t.query)-resp.Stats.ElapsedMillis)
		size = append(size, float64(t.bytes)/(1<<20))
		rows += o.Rows
	}
	after, err := cl.scrape()
	if err != nil {
		return err
	}
	if len(eval) == 0 {
		return errors.New("every traced operation failed")
	}
	m := res.Metrics
	all := append(append([]float64{}, lat[0]...), lat[1]...)
	m["client.samples"] = metric{float64(len(all)), "count"}
	m["client.latency_p95_ms"] = metric{percentile(all, 0.95), "ms"}
	m["client.latency_max_ms"] = metric{percentile(all, 1), "ms"}
	overhead := 0.0
	if off := median(lat[0]); off > 0 && len(lat[1]) > 0 {
		overhead = 100 * (median(lat[1]) - off) / off
	}
	m["client.trace_overhead_pct"] = metric{overhead, "%"}
	m["server.eval_ms"] = metric{median(eval), "ms"}
	m["server.respond_ms"] = metric{median(respond), "ms"}
	m["server.respond_ns_per_row"] = metric{1e6 * median(respond) / (float64(rows) / float64(len(eval))), "ns/row"}
	m["server.response_mb"] = metric{median(size), "MB"}
	m["server.mutate_ms"] = metric{median(mutate), "ms"}
	requery := 0.0
	if p.w.Mutates {
		requery = median(query)
	}
	m["server.requery_ms"] = metric{requery, "ms"}

	// delta is how much one series, or a whole family when no label is
	// given, grew over the pass.
	delta := func(family string, label ...string) float64 {
		if len(label) == 0 {
			return familySum(after, family) - familySum(before, family)
		}
		a, _ := after.Value(family, label...)
		b, _ := before.Value(family, label...)
		return a - b
	}
	const events = "windowd_cache_events_total"
	hits, misses := delta(events, "event=hit"), delta(events, "event=miss")
	m["treecache.hits"] = metric{hits, "count"}
	m["treecache.misses"] = metric{misses, "count"}
	m["treecache.evictions"] = metric{delta(events, "event=eviction"), "count"}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["treecache.hit_ratio"] = metric{ratio, "ratio"}
	resident, _ := after.Value("windowd_cache_bytes")
	m["treecache.resident_mb"] = metric{resident / (1 << 20), "MB"}
	m["treecache.build_s"] = metric{delta("windowd_cache_build_seconds_total"), "s"}
	m["mst.batch_queries"] = metric{delta("windowd_mst_batch_queries"), "count"}
	m["mst.batch_dedup_hits"] = metric{delta("windowd_mst_batch_dedup_hits"), "count"}
	m["arena.allocated_mb"] = metric{delta("windowd_arena_allocated_bytes_total") / (1 << 20), "MB"}
	m["pool.misses"] = metric{delta("windowd_pool_misses_total"), "count"}
	m["delta.compactions"] = metric{delta("windowd_delta_compactions_total"), "count"}
	m["delta.materializations"] = metric{delta("windowd_delta_materializations_total"), "count"}
	return nil
}
