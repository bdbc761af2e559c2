package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/ingest"
	"holistic/internal/obs"
	"holistic/internal/plan"
)

// serverObs is windowd's metric surface, exported in the Prometheus text
// format at GET /v1/metrics. Request- and query-scoped series are updated
// live on their handles; counters owned elsewhere — the tree cache, the
// arena and the scratch pools — are func-backed and snapshotted at scrape
// time, so the exposition replaces the hand-rolled /statusz text as the
// machine-readable view of those subsystems (the text page stays for
// humans).
//
// Series (labels in braces), documented in DESIGN.md §9:
//
//	windowd_requests_total{route,code}            counter
//	windowd_request_duration_seconds{route}       histogram
//	windowd_response_bytes_total{route}           counter
//	windowd_inflight_requests                     gauge
//	windowd_eval_duration_seconds{function}       histogram
//	windowd_snapshot_materialize_seconds          histogram
//	windowd_respond_duration_seconds              histogram
//	windowd_response_aborts_total                 counter
//	windowd_rows_returned_total                   counter
//	windowd_slow_queries_total                    counter
//	windowd_admission_queue_depth                 gauge
//	windowd_admission_in_use                      gauge
//	windowd_admission_timeouts_total              counter
//	windowd_uptime_seconds                        gauge  (func)
//	windowd_datasets                              gauge  (func)
//	windowd_cache_events_total{event}             counter (func)
//	windowd_cache_entries / _bytes / _budget_bytes gauge (func)
//	windowd_cache_build_seconds_total             counter (func)
//	windowd_arena_{arenas,chunks,resets}_total    counter (func)
//	windowd_arena_allocated_bytes_total           counter (func)
//	windowd_pool_{gets,puts,misses}_total{pool}   counter (func)
//	windowd_pool_bytes_in_flight{pool}            gauge  (func)
//	windowd_mst_batch_queries                     counter (func)
//	windowd_mst_batch_dedup_hits                  counter (func)
//	windowd_mst_batch_queries_family              counter (func, labels: family)
//	windowd_mst_batch_dedup_hits_family           counter (func, labels: family)
//	windowd_mst_batch_leaf_queries_family         counter (func, labels: family)
//	windowd_mst_batch_diff_queries_family         counter (func, labels: family)
//	  (family: count, select, agg, rank, leadlag — one value per batch
//	  collector family of core.BatchFamilySnapshot)
//	windowd_plan_shared_sorts                     counter (func)
//	windowd_plan_shared_trees                     counter (func)
//	windowd_plan_shared_preprocess                counter (func)
//	windowd_ingest_runs_total{state}              counter (func)
//	windowd_ingest_rows_total                     counter (func)
//	windowd_ingest_segments_written_total         counter (func)
//	windowd_ingest_intervals_resumed_total        counter (func)
//	windowd_delta_mutations_total{op}             counter (func)
//	windowd_delta_batches_total                   counter (func)
//	windowd_delta_conflicts_total                 counter (func)
//	windowd_delta_compactions_total               counter (func)
//	windowd_delta_materializations_total          counter (func)
//	windowd_delta_rows                            gauge  (func)
type serverObs struct {
	reg   *obs.Registry
	start time.Time

	requests *obs.Counter
	// routes holds the per-route series, resolved once for every pattern of
	// the route table: requests can only ever land on one of these.
	routes   map[string]routeObs
	inflight *obs.GaugeCell

	evalDur        *obs.Histogram
	materializeDur *obs.HistogramCell
	respondDur     *obs.HistogramCell
	responseAborts *obs.CounterCell
	rowsReturned   *obs.CounterCell
	slowQueries    *obs.CounterCell

	admissionDepth    *obs.GaugeCell
	admissionInUse    *obs.GaugeCell
	admissionTimeouts *obs.CounterCell
}

// routeObs is one route pattern's latency and body-size series.
type routeObs struct {
	dur   *obs.HistogramCell
	bytes *obs.CounterCell
}

// newServerObs builds the registry. s only needs its cache and dataset map
// ready; the func-backed families hold the *Server and snapshot at scrape.
// routes is the route table's patterns plus unmatchedRoute.
func newServerObs(s *Server, routes []string) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:   reg,
		start: time.Now(),
		requests: reg.NewCounter("windowd_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		routes: make(map[string]routeObs, len(routes)),
	}
	reqDur := reg.NewHistogram("windowd_request_duration_seconds",
		"End-to-end request latency by route pattern.",
		nil, "route")
	respBytes := reg.NewCounter("windowd_response_bytes_total",
		"Response body bytes written, by route pattern.",
		"route")
	for _, route := range routes {
		o.routes[route] = routeObs{dur: reqDur.With(route), bytes: respBytes.With(route)}
	}
	o.inflight = reg.NewGauge("windowd_inflight_requests",
		"Requests currently being handled.").With()
	o.evalDur = reg.NewHistogram("windowd_eval_duration_seconds",
		"Window evaluation time per function and statement, summed over the statement's partitions, from the query span tree.",
		nil, "function")
	o.materializeDur = reg.NewHistogram("windowd_snapshot_materialize_seconds",
		"Time a query spent getting its snapshot's merged table: the copy for the first query of a mutated epoch, nothing for a clean or already built one.",
		nil).With()
	o.respondDur = reg.NewHistogram("windowd_respond_duration_seconds",
		"Time streaming a query response, from its first byte queued to its last flush.",
		nil).With()
	o.responseAborts = reg.NewCounter("windowd_response_aborts_total",
		"Query responses cut short after their first byte: the client went away, the deadline passed or a write failed.").With()
	o.rowsReturned = reg.NewCounter("windowd_rows_returned_total",
		"Result rows of completed query responses.").With()
	o.slowQueries = reg.NewCounter("windowd_slow_queries_total",
		"Queries whose evaluation plus response exceeded the slow-query threshold.").With()
	o.admissionDepth = reg.NewGauge("windowd_admission_queue_depth",
		"Queries waiting for an evaluation slot.").With()
	o.admissionInUse = reg.NewGauge("windowd_admission_in_use",
		"Evaluation slots currently occupied.").With()
	o.admissionTimeouts = reg.NewCounter("windowd_admission_timeouts_total",
		"Queries that hit their deadline before getting an evaluation slot.").With()

	reg.NewGaugeFunc("windowd_uptime_seconds",
		"Seconds since the server was built.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: time.Since(o.start).Seconds()}}
		})
	reg.NewGaugeFunc("windowd_datasets",
		"Registered datasets.", nil, func() []obs.Sample {
			s.mu.RLock()
			n := len(s.datasets)
			s.mu.RUnlock()
			return []obs.Sample{{Value: float64(n)}}
		})

	reg.NewCounterFunc("windowd_cache_events_total",
		"Tree cache lifecycle events: hit, miss, join (single-flight follower), failure, eviction, invalidation.",
		[]string{"event"}, func() []obs.Sample {
			st := s.cache.Stats()
			return []obs.Sample{
				{Labels: []string{"hit"}, Value: float64(st.Hits)},
				{Labels: []string{"miss"}, Value: float64(st.Misses)},
				{Labels: []string{"join"}, Value: float64(st.Joins)},
				{Labels: []string{"failure"}, Value: float64(st.Failures)},
				{Labels: []string{"eviction"}, Value: float64(st.Evictions)},
				{Labels: []string{"invalidation"}, Value: float64(st.Invalidations)},
			}
		})
	reg.NewGaugeFunc("windowd_cache_entries",
		"Entries resident in the tree cache.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.cache.Stats().Entries)}}
		})
	reg.NewGaugeFunc("windowd_cache_bytes",
		"Bytes resident in the tree cache.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.cache.Stats().Bytes)}}
		})
	reg.NewGaugeFunc("windowd_cache_budget_bytes",
		"Tree cache byte budget (0 = unlimited).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.cache.Stats().Budget)}}
		})
	reg.NewCounterFunc("windowd_cache_build_seconds_total",
		"Cumulative time spent building cache entries.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: s.cache.Stats().BuildTime.Seconds()}}
		})

	reg.NewCounterFunc("windowd_arena_arenas_total",
		"Arenas created by the allocation-aware query path.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(arena.ArenaSnapshot().Arenas)}}
		})
	reg.NewCounterFunc("windowd_arena_chunks_total",
		"Chunks reserved by arenas.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(arena.ArenaSnapshot().Chunks)}}
		})
	reg.NewCounterFunc("windowd_arena_allocated_bytes_total",
		"Bytes reserved by arenas.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(arena.ArenaSnapshot().Bytes)}}
		})
	reg.NewCounterFunc("windowd_arena_resets_total",
		"Arena resets (reuse of reserved chunks).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(arena.ArenaSnapshot().Resets)}}
		})

	reg.NewCounterFunc("windowd_mst_batch_queries",
		"Unique queries handed to the batched level-synchronous MST kernels (after adjacent-row dedup).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.BatchSnapshot().Queries)}}
		})
	reg.NewCounterFunc("windowd_mst_batch_dedup_hits",
		"Row evaluations answered by reusing the previous row's identical batched query set.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(core.BatchSnapshot().DedupHits)}}
		})
	reg.NewCounterFunc("windowd_mst_batch_queries_family",
		"Unique batched MST kernel queries split by kernel family: count, select, agg, rank, leadlag.",
		[]string{"family"}, func() []obs.Sample {
			stats := core.BatchFamilySnapshot()
			out := make([]obs.Sample, len(stats))
			for i, st := range stats {
				out[i] = obs.Sample{Labels: []string{st.Family}, Value: float64(st.Queries)}
			}
			return out
		})
	reg.NewCounterFunc("windowd_mst_batch_dedup_hits_family",
		"Batched dedup hits split by kernel family: count, select, agg, rank, leadlag.",
		[]string{"family"}, func() []obs.Sample {
			stats := core.BatchFamilySnapshot()
			out := make([]obs.Sample, len(stats))
			for i, st := range stats {
				out[i] = obs.Sample{Labels: []string{st.Family}, Value: float64(st.DedupHits)}
			}
			return out
		})
	reg.NewCounterFunc("windowd_mst_batch_leaf_queries_family",
		"Batched MST kernel queries answered by a pass over the tree's level 0 (narrow ranges) instead of a descent, by kernel family: count, select, agg, rank, leadlag.",
		[]string{"family"}, func() []obs.Sample {
			stats := core.BatchFamilySnapshot()
			out := make([]obs.Sample, len(stats))
			for i, st := range stats {
				out[i] = obs.Sample{Labels: []string{st.Family}, Value: float64(st.LeafQueries)}
			}
			return out
		})
	reg.NewCounterFunc("windowd_mst_batch_diff_queries_family",
		"Batched MST queries answered from the previous query instead of a descent (sliding frames): a count from its count plus the rows and keys that moved, a select by a level-0 walk from its answer; by kernel family: count, select, agg, rank, leadlag.",
		[]string{"family"}, func() []obs.Sample {
			stats := core.BatchFamilySnapshot()
			out := make([]obs.Sample, len(stats))
			for i, st := range stats {
				out[i] = obs.Sample{Labels: []string{st.Family}, Value: float64(st.DiffQueries)}
			}
			return out
		})

	reg.NewCounterFunc("windowd_plan_shared_sorts",
		"Window sorts avoided by the shared-plan optimizer (windows that reused another window's sort).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(plan.Snapshot().SharedSorts)}}
		})
	reg.NewCounterFunc("windowd_plan_shared_trees",
		"Tree builds avoided by the shared-plan optimizer (consumers beyond a shared tree's first).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(plan.Snapshot().SharedTrees)}}
		})
	reg.NewCounterFunc("windowd_plan_shared_preprocess",
		"Preprocessing passes avoided by the shared-plan optimizer (partition boundaries and per-partition arrays reused).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(plan.Snapshot().SharedPreprocess)}}
		})

	reg.NewCounterFunc("windowd_ingest_runs_total",
		"Ingest runs by outcome: started, completed, failed.",
		[]string{"state"}, func() []obs.Sample {
			st := ingest.Snapshot()
			return []obs.Sample{
				{Labels: []string{"started"}, Value: float64(st.Started)},
				{Labels: []string{"completed"}, Value: float64(st.Completed)},
				{Labels: []string{"failed"}, Value: float64(st.Failed)},
			}
		})
	reg.NewCounterFunc("windowd_ingest_rows_total",
		"Data rows written into segment files by the ingest pipeline.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(ingest.Snapshot().RowsIngested)}}
		})
	reg.NewCounterFunc("windowd_ingest_segments_written_total",
		"Segment files written by the ingest pipeline.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(ingest.Snapshot().SegmentsWritten)}}
		})
	reg.NewCounterFunc("windowd_ingest_intervals_resumed_total",
		"Intervals skipped on resume because a previous run completed them.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(ingest.Snapshot().IntervalsResumed)}}
		})

	reg.NewCounterFunc("windowd_delta_mutations_total",
		"Mutations applied to live datasets, by op: append, upsert, delete.",
		[]string{"op"}, func() []obs.Sample {
			st := delta.Counters()
			return []obs.Sample{
				{Labels: []string{"append"}, Value: float64(st.Appends)},
				{Labels: []string{"upsert"}, Value: float64(st.Upserts)},
				{Labels: []string{"delete"}, Value: float64(st.Deletes)},
			}
		})
	reg.NewCounterFunc("windowd_delta_batches_total",
		"Mutation batches applied (each advances its dataset's epoch by one).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(delta.Counters().Batches)}}
		})
	reg.NewCounterFunc("windowd_delta_conflicts_total",
		"Mutation batches rejected for a stale expected epoch (HTTP 409).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(delta.Counters().Conflicts)}}
		})
	reg.NewCounterFunc("windowd_delta_compactions_total",
		"Overlay-into-base compactions (frozen generation swaps).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(delta.Counters().Compactions)}}
		})
	reg.NewCounterFunc("windowd_delta_materializations_total",
		"Merged-table materializations (once per queried dirty epoch).", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(delta.Counters().Materializations)}}
		})
	reg.NewGaugeFunc("windowd_delta_rows",
		"Overlay rows pending compaction, summed over datasets.", nil, func() []obs.Sample {
			s.mu.RLock()
			total := 0
			for _, ds := range s.datasets {
				total += ds.buf.Snapshot().DeltaRows()
			}
			s.mu.RUnlock()
			return []obs.Sample{{Value: float64(total)}}
		})

	reg.NewCounterFunc("windowd_pool_gets_total",
		"Scratch-pool Get calls, by pool.", []string{"pool"}, poolSamples(func(ps arena.PoolStat) float64 { return float64(ps.Gets) }))
	reg.NewCounterFunc("windowd_pool_puts_total",
		"Scratch-pool Put calls, by pool.", []string{"pool"}, poolSamples(func(ps arena.PoolStat) float64 { return float64(ps.Puts) }))
	reg.NewCounterFunc("windowd_pool_misses_total",
		"Scratch-pool Gets that had to allocate, by pool.", []string{"pool"}, poolSamples(func(ps arena.PoolStat) float64 { return float64(ps.Misses) }))
	reg.NewGaugeFunc("windowd_pool_bytes_in_flight",
		"Scratch-pool bytes handed out and not yet returned, by pool.", []string{"pool"}, poolSamples(func(ps arena.PoolStat) float64 { return float64(ps.BytesInFlight) }))
	return o
}

// poolSamples adapts one numeric field of every registered pool into a
// labelled sample set.
func poolSamples(field func(arena.PoolStat) float64) func() []obs.Sample {
	return func() []obs.Sample {
		stats := arena.Snapshot()
		out := make([]obs.Sample, 0, len(stats))
		for _, ps := range stats {
			out = append(out, obs.Sample{Labels: []string{ps.Name}, Value: field(ps)})
		}
		return out
	}
}

// observeRequest records the per-request series after the handler returned.
func (o *serverObs) observeRequest(route string, status int, d time.Duration, bytes int64) {
	o.requests.With(route, strconv.Itoa(status)).Inc()
	ro := o.routes[route]
	ro.dur.Observe(d.Seconds())
	ro.bytes.Add(float64(bytes))
}

// renderRequests writes /statusz's uptime, request total and per-endpoint
// lines from the request series; per-status-code counts and the latency
// buckets are on /v1/metrics.
func (o *serverObs) renderRequests(b *strings.Builder) {
	fmt.Fprintf(b, "uptime: %s\n", time.Since(o.start).Round(time.Millisecond))
	routes := make([]string, 0, len(o.routes))
	for route := range o.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	var endpoints strings.Builder
	total := int64(0)
	for _, route := range routes {
		ro := o.routes[route]
		n, sec := ro.dur.Totals()
		if n == 0 {
			continue
		}
		total += n
		fmt.Fprintf(&endpoints, "endpoint %s: requests=%d mean=%.2fms bytes=%.0f\n",
			route, n, sec*1e3/float64(n), ro.bytes.Value())
	}
	fmt.Fprintf(b, "requests: total=%d\n%s", total, endpoints.String())
}

// observeQuerySpans walks a finished query span tree and feeds the
// per-function evaluation histogram from the "eval" spans the
// operator emitted: one per function of the statement, its duration summed
// over the partitions that evaluated — so one observation per function per
// statement, whatever the partition count.
func (o *serverObs) observeQuerySpans(root *obs.Span) {
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "eval" {
			return
		}
		fn := sp.Attr("function")
		if fn == "" {
			return
		}
		o.evalDur.With(fn).Observe(sp.Duration().Seconds())
	})
}
