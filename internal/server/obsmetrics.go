package server

import (
	"strconv"
	"time"

	"holistic/internal/arena"
	"holistic/internal/obs"
	"holistic/internal/treecache"
)

// serverObs is the server's own metric registry: request- and
// query-scoped series updated live on their handles, and func-backed
// families for what is read off this server's state at scrape time — its
// tree cache, datasets, overlay rows and uptime — and for the scratch
// pools, whose per-pool snapshot is state rather than an event count.
// GET /v1/metrics writes it, then obs.Default, which holds the process-wide
// event counters each package declares where it counts them. DESIGN.md
// §9.2 lists every family; TestMetricsCatalogue pins the list.
type serverObs struct {
	reg *obs.Registry

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
// ready; the func-backed families hold the *Server and read it at scrape.
// routes is the route table's patterns plus unmatchedRoute.
func newServerObs(s *Server, routes []string) *serverObs {
	reg, start := obs.NewRegistry(), time.Now()
	o := &serverObs{
		reg: reg,
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
			return []obs.Sample{{Value: time.Since(start).Seconds()}}
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
	// cacheStat adapts one field of the tree cache's stats into a series.
	cacheStat := func(field func(treecache.Stats) float64) func() []obs.Sample {
		return func() []obs.Sample { return []obs.Sample{{Value: field(s.cache.Stats())}} }
	}
	reg.NewGaugeFunc("windowd_cache_entries", "Entries resident in the tree cache.", nil,
		cacheStat(func(st treecache.Stats) float64 { return float64(st.Entries) }))
	reg.NewGaugeFunc("windowd_cache_bytes", "Bytes resident in the tree cache.", nil,
		cacheStat(func(st treecache.Stats) float64 { return float64(st.Bytes) }))
	reg.NewGaugeFunc("windowd_cache_budget_bytes", "Tree cache byte budget (0 = unlimited).", nil,
		cacheStat(func(st treecache.Stats) float64 { return float64(st.Budget) }))
	reg.NewCounterFunc("windowd_cache_build_seconds_total", "Cumulative time spent building cache entries.", nil,
		cacheStat(func(st treecache.Stats) float64 { return st.BuildTime.Seconds() }))

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
	ro.bytes.Add(bytes)
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
