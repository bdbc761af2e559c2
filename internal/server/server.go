// Package server implements windowd, the HTTP/JSON daemon serving framed
// holistic window queries over registered CSV datasets.
//
// Its core is a structure cache: the merge sort trees and preprocessed
// arrays the window operator builds are keyed by (dataset version,
// partitioning, ordering, tree options) and kept in a byte-budgeted LRU
// (internal/treecache), so a query repeated — or any query agreeing on
// partitioning and ordering — skips the build phase entirely. This is the
// paper's "one tree answers arbitrarily many framed queries" property
// lifted to the request level.
//
// The HTTP surface is versioned under /v1 (see internal/server/api for the
// wire contract): /v1/query, /v1/explain, /v1/datasets, /v1/healthz and the
// Prometheus exposition at /v1/metrics. Every non-2xx response — including
// the mux's own 404 and 405 — carries the api.ErrorResponse envelope.
//
// Every request and response body is one of api's types, encoded and
// decoded as declared there. Status has two surfaces: the metric registry
// at /v1/metrics (requests, cache, arena, pools, kernels, ingest, delta)
// and the dataset listing at /v1/datasets (version, rows, columns, segments,
// epoch).
//
// Production plumbing: per-request timeouts plumbed into the operator's
// cooperative cancellation, a semaphore admission limiter, per-query trace
// spans feeding the metrics registry and a threshold-gated slow-query log,
// structured request logging, and graceful shutdown through
// http.Server.Shutdown draining in-flight queries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/delta"
	"holistic/internal/ingest"
	"holistic/internal/obs"
	"holistic/internal/plan"
	"holistic/internal/segment"
	"holistic/internal/server/api"
	"holistic/internal/sqlparse"
	"holistic/internal/treecache"
)

// Config tunes the server.
type Config struct {
	// CacheBytes is the tree cache budget; <= 0 means unlimited.
	CacheBytes int64
	// MaxConcurrent caps queries evaluating at once; excess requests wait
	// for a slot until their deadline. <= 0 means 4.
	MaxConcurrent int
	// DefaultTimeout applies to queries that set no timeout (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout (default 5m).
	MaxTimeout time.Duration
	// TaskSize overrides the operator's parallel task granularity
	// (tests use small values to exercise cancellation between chunks).
	TaskSize int
	// SlowQuery is the slow-query log threshold: queries whose evaluation
	// plus response streaming take at least this long are logged at WARN
	// with their rendered span tree (including cache_hits/cache_builds
	// counts, so a cold-cache build is distinguishable from a slow probe) and the
	// response's time, rows and bytes. <= 0 disables the log.
	SlowQuery time.Duration
	// MaxUploadBytes caps every request body the server reads: dataset
	// registration (CSV uploads and JSON register requests), mutation
	// batches, queries and explains. An oversized body answers 413 with
	// the payload_too_large code. <= 0 means 256 MiB.
	MaxUploadBytes int64
	// CompactRows is the per-dataset mutation-overlay size at which the
	// background compactor folds the overlay into a new frozen generation;
	// <= 0 picks max(1024, rows/8) adaptively (delta.Options.CompactRows).
	CompactRows int
	// CompactInterval is how often the background compactor checks each
	// dataset's overlay against the threshold. <= 0 disables background
	// compaction (overlays then only fold on reload).
	CompactInterval time.Duration
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// dataset is one registered table plus its cache identity and mutation
// state. Queries read buf's current snapshot; the dataset itself keeps only
// the registered schema, so a compaction frees the registration-time rows.
type dataset struct {
	// schema holds the registered columns' names and kinds, with no rows;
	// dates marks the columns parsed from ISO dates.
	schema *core.Table
	dates  map[string]bool
	info   api.DatasetInfo
	// scope is the cache key prefix "name@v<version>"; queries append
	// "|g<gen>". The compaction swap drops a folded generation's scope,
	// and with it the entries of partitions its mutations superseded;
	// until then only the cache's byte budget bounds those entries.
	scope string
	// buf is the live-mutation buffer over the registered table. Always
	// non-nil; datasets registered without a key column are append-only.
	buf *delta.Buffer
	// stopCompact terminates the dataset's background compactor; nil when
	// background compaction is disabled.
	stopCompact func()
}

// genScope is the cache scope of a dataset generation's queries: the
// dataset's "name@v<version>" scope, then "|g<gen>".
func genScope(scope string, gen int64) string { return fmt.Sprintf("%s|g%d", scope, gen) }

// Server is the windowd request handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *treecache.Cache
	limiter chan struct{}
	obs     *serverObs // the metric registry behind /v1/metrics

	mu       sync.RWMutex
	datasets map[string]*dataset
	jobs     map[string]*ingestJob

	mux *http.ServeMux
}

// ingestJob is one asynchronous source→dataset ingest started by
// POST /v1/datasets/{name} with source=ingest. Progress is polled live off
// the Ingester; the outcome fields are set exactly once before done closes.
type ingestJob struct {
	ing  *ingest.Ingester
	done chan struct{}

	mu   sync.Mutex
	err  error
	info *api.DatasetInfo
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		cache:    treecache.New(cfg.CacheBytes),
		limiter:  make(chan struct{}, cfg.MaxConcurrent),
		datasets: make(map[string]*dataset),
		jobs:     make(map[string]*ingestJob),
	}
	routes := map[string]http.HandlerFunc{
		"GET " + api.PathHealthz:                         s.handleHealthz,
		"GET " + api.PathMetrics:                         s.handleMetrics,
		"GET " + api.PathDatasets:                        s.handleListDatasets,
		"POST " + api.PathDatasets + "/{name}":           s.handleRegister,
		"GET " + api.PathDatasets + "/{name}/ingest":     s.handleIngestStatus,
		"POST " + api.PathDatasets + "/{name}/mutations": s.handleMutations,
		"POST " + api.PathQuery:                          s.handleQuery,
		"POST " + api.PathExplain:                        s.handleExplain,
	}
	s.mux = http.NewServeMux()
	patterns := []string{unmatchedRoute}
	for pattern, h := range routes {
		s.mux.HandleFunc(pattern, h)
		patterns = append(patterns, pattern)
	}
	s.obs = newServerObs(s, patterns)
	return s
}

// unmatchedRoute labels every request no pattern matched, whatever its
// method and path.
const unmatchedRoute = "(unmatched)"

// Handler returns the HTTP handler with request logging and metrics wired
// around every route, and the error envelope wired under unmatched requests
// (the mux's plain-text 404/405 never reach a client).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.obs.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// The route label is the matched pattern, so its cardinality is
		// bounded by the route table and never by what a client sent.
		_, route := s.mux.Handler(r)
		if route == "" {
			route = unmatchedRoute
			s.serveUnmatched(sw, r)
		} else {
			s.mux.ServeHTTP(sw, r)
		}
		d := time.Since(start)
		s.obs.inflight.Add(-1)
		s.obs.observeRequest(route, sw.status, d, sw.bytes)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(d) / float64(time.Millisecond),
		}
		if sw.aborted {
			attrs = append(attrs, "aborted", true)
		}
		s.log.Info("request", attrs...)
	})
}

// serveUnmatched answers a request no pattern matched with the JSON error
// envelope. The mux is probed against a throwaway writer to learn whether
// this is a 404 or a 405 (and to salvage the Allow header it computes).
func (s *Server) serveUnmatched(w http.ResponseWriter, r *http.Request) {
	h, _ := s.mux.Handler(r)
	probe := &probeWriter{header: make(http.Header)}
	h.ServeHTTP(probe, r)
	if allow := probe.header.Get("Allow"); allow != "" {
		w.Header().Set("Allow", allow)
	}
	if probe.status == http.StatusMethodNotAllowed {
		writeError(w, httpErrorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method %s not allowed for %s", r.Method, r.URL.Path))
		return
	}
	writeError(w, httpErrorf(http.StatusNotFound, api.CodeNotFound,
		"no route for %s %s", r.Method, r.URL.Path))
}

// probeWriter captures the status and headers of the mux's built-in
// not-found/not-allowed handlers without sending anything to the client.
type probeWriter struct {
	header http.Header
	status int
}

func (p *probeWriter) Header() http.Header         { return p.header }
func (p *probeWriter) Write(b []byte) (int, error) { return len(b), nil }
func (p *probeWriter) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

// statusWriter records the response status and body size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// aborted marks a streamed response that was cut short after the status
	// line went out (handleQuery sets it).
	aborted bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// RegisterCSVKeyed parses a CSV and registers (or reloads) it under name,
// with a mutation key column: a unique, non-NULL INT64 or STRING column
// that upserts and deletes address rows by. An empty keyColumn makes the
// dataset append-only. A reload bumps the dataset version and invalidates
// every cache entry built against the previous version.
func (s *Server) RegisterCSVKeyed(name string, r io.Reader, keyColumn string) (api.DatasetInfo, error) {
	file, err := csvio.Read(r)
	if err != nil {
		return api.DatasetInfo{}, fmt.Errorf("parse csv: %w", err)
	}
	return s.install(name, file, 0, keyColumn)
}

// RegisterPath loads a CSV file from the server's filesystem.
func (s *Server) RegisterPath(name, path string) (api.DatasetInfo, error) {
	return s.RegisterPathKeyed(name, path, "")
}

// RegisterPathKeyed loads a CSV file with a mutation key column.
func (s *Server) RegisterPathKeyed(name, path, keyColumn string) (api.DatasetInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return api.DatasetInfo{}, err
	}
	defer f.Close()
	return s.RegisterCSVKeyed(name, f, keyColumn)
}

// RegisterDir materializes a segment dataset directory (written by the
// ingest pipeline or windowcli -ingest) and registers it under name. Every
// segment decodes straight into the dataset's table, its one copy in
// memory; a reload reads the whole directory again, and like any reload it
// invalidates every cache entry under the previous version's scope.
func (s *Server) RegisterDir(name, dir string) (api.DatasetInfo, error) {
	d, err := segment.OpenDir(dir)
	if err != nil {
		return api.DatasetInfo{}, err
	}
	defer d.Close()
	file, err := d.File(nil)
	if err != nil {
		return api.DatasetInfo{}, err
	}
	return s.install(name, file, len(d.Segments()), "")
}

func (s *Server) install(name string, file *csvio.File, segments int, keyColumn string) (api.DatasetInfo, error) {
	buf, err := delta.NewBuffer(file.Table, keyColumn, delta.Options{CompactRows: s.cfg.CompactRows})
	if err != nil {
		return api.DatasetInfo{}, err
	}
	cols := make([]string, 0, len(file.Table.Columns()))
	schema := make([]*core.Column, 0, cap(cols))
	for _, c := range file.Table.Columns() {
		cols = append(cols, c.Name())
		schema = append(schema, core.ConcatSpans([]*core.Column{c}, nil))
	}
	s.mu.Lock()
	version := int64(1)
	oldScope := ""
	var stopPrev func()
	if prev, ok := s.datasets[name]; ok {
		version = prev.info.Version + 1
		oldScope = prev.scope
		stopPrev = prev.stopCompact
	}
	ds := &dataset{
		schema: core.MustNewTable(schema...),
		dates:  file.DateColumns,
		buf:    buf,
		scope:  fmt.Sprintf("%s@v%d", name, version),
		info: api.DatasetInfo{
			Name:      name,
			Version:   version,
			Rows:      file.Table.Rows(),
			Columns:   cols,
			Segments:  segments,
			KeyColumn: keyColumn,
		},
	}
	if s.cfg.CompactInterval > 0 {
		scope := ds.scope
		ds.stopCompact = buf.StartCompactor(s.cfg.CompactInterval, func(oldGen, newGen int64) {
			// The folded generation's cache entries are unreachable (queries
			// key on the new gen); release their bytes eagerly.
			removed := s.cache.Invalidate(core.InScope(genScope(scope, oldGen)))
			s.log.Info("delta compacted", "dataset", name, "gen", newGen, "invalidated", removed)
		})
	}
	s.datasets[name] = ds
	s.mu.Unlock()
	if stopPrev != nil {
		stopPrev()
	}
	if oldScope != "" {
		// Entries under the old scope are unreachable (new queries key on
		// the new version); drop them eagerly to release their bytes.
		removed := s.cache.Invalidate(core.InScope(oldScope))
		s.log.Info("dataset reloaded", "dataset", name, "version", version, "invalidated", removed)
	} else {
		s.log.Info("dataset registered", "dataset", name, "rows", ds.info.Rows)
	}
	return ds.info, nil
}

// Close stops the background compactors. The HTTP side is shut down by the
// owner's http.Server; Close only releases server-owned goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	stops := make([]func(), 0, len(s.datasets))
	for _, ds := range s.datasets {
		if ds.stopCompact != nil {
			stops = append(stops, ds.stopCompact)
			ds.stopCompact = nil
		}
	}
	s.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

func (s *Server) lookup(name string) (*dataset, bool) {
	s.mu.RLock()
	ds, ok := s.datasets[name]
	s.mu.RUnlock()
	return ds, ok
}

// httpError is an error with a dedicated HTTP status and envelope code.
type httpError struct {
	status int
	code   api.ErrorCode
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, code api.ErrorCode, format string, args ...any) *httpError {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader cannot be reported to the client;
	// the types marshalled here contain no unencodable values.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders err as the api.ErrorResponse envelope. Errors that
// carry no explicit classification map to internal (500), except context
// errors, which surface as 504 with the matching code.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code := api.CodeInternal
	var he *httpError
	switch {
	case errors.As(err, &he):
		status, code = he.status, he.code
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, api.CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		status, code = http.StatusGatewayTimeout, api.CodeCanceled
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorDetail{
		Code:    code,
		Message: err.Error(),
	}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4): the
// server's own registry, then the process-wide obs.Default.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.obs.reg.WriteText(w) == nil {
		_ = obs.Default.WriteText(w)
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	list := api.DatasetList{Datasets: make([]api.DatasetInfo, 0, len(s.datasets))}
	for _, ds := range s.datasets {
		info := ds.info
		// Rows and Epoch are live: they track applied mutations, not the
		// registration-time base.
		snap := ds.buf.Snapshot()
		info.Rows = snap.Rows()
		info.Epoch = snap.Epoch()
		list.Datasets = append(list.Datasets, info)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, list)
}

// requestError classifies a failed request under a message prefix that
// names its route (`register "t"`, `bad query request`): a body that
// tripped the MaxBytesReader cap is 413 payload_too_large, anything else
// 400.
func requestError(route string, err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrorf(http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
			"%s: request body exceeds the %d-byte upload limit", route, mbe.Limit)
	}
	return httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%s: %v", route, err)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "missing dataset name"))
		return
	}
	route := "register " + strconv.Quote(name)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		// The ?key= query parameter names the mutation key column for
		// direct CSV uploads (JSON registrations use key_column).
		info, err := s.RegisterCSVKeyed(name, body, r.URL.Query().Get("key"))
		if err != nil {
			writeError(w, requestError(route, err))
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	var req api.RegisterRequest
	if derr := json.NewDecoder(body).Decode(&req); derr != nil {
		writeError(w, requestError(route, derr))
		return
	}
	var info api.DatasetInfo
	var err error
	switch req.Source {
	case "", api.SourceCSV:
		if req.Path == "" {
			writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "register request needs a path (or upload CSV directly)"))
			return
		}
		info, err = s.RegisterPathKeyed(name, req.Path, req.KeyColumn)
	case api.SourceDir:
		if req.Dir == "" {
			writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "source=dir needs dir (a segment dataset directory)"))
			return
		}
		info, err = s.RegisterDir(name, req.Dir)
	case api.SourceIngest:
		s.startIngest(w, r, name, req)
		return
	default:
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"unknown source %q (want %q, %q or %q)", req.Source, api.SourceCSV, api.SourceDir, api.SourceIngest))
		return
	}
	if err != nil {
		writeError(w, requestError(route, err))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// startIngest launches an asynchronous CSV→segment-directory ingest and
// answers 202 with the initial status. The work continues after this
// request returns (the goroutine detaches from the request's cancellation
// but keeps its values), and the finished dataset registers itself under
// name. Progress is served by GET /v1/datasets/{name}/ingest.
func (s *Server) startIngest(w http.ResponseWriter, r *http.Request, name string, req api.RegisterRequest) {
	if req.Path == "" || req.Dir == "" {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"source=ingest needs path (CSV source) and dir (dataset directory)"))
		return
	}
	job := &ingestJob{
		ing: ingest.New(req.Path, req.Dir, ingest.Options{
			RowsPerSegment: req.RowsPerSegment,
			BlockRows:      req.BlockRows,
		}),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if prev, ok := s.jobs[name]; ok {
		select {
		case <-prev.done:
			// Finished (or failed): a new ingest may replace it.
		default:
			s.mu.Unlock()
			writeError(w, httpErrorf(http.StatusConflict, api.CodeConflict,
				"an ingest for dataset %q is already running", name))
			return
		}
	}
	s.jobs[name] = job
	s.mu.Unlock()
	s.log.Info("ingest started", "dataset", name, "source", req.Path, "dir", req.Dir)
	go s.runIngest(context.WithoutCancel(r.Context()), name, req.Dir, job)
	writeJSON(w, http.StatusAccepted, jobStatus(job))
}

func (s *Server) runIngest(ctx context.Context, name, dir string, job *ingestJob) {
	res, err := job.ing.Run(ctx)
	var info api.DatasetInfo
	if err == nil {
		info, err = s.RegisterDir(name, dir)
	}
	job.mu.Lock()
	job.err = err
	if err == nil {
		job.info = &info
	}
	job.mu.Unlock()
	close(job.done)
	if err != nil {
		s.log.Error("ingest failed", "dataset", name, "err", err)
		return
	}
	s.log.Info("ingest complete", "dataset", name,
		"rows", res.Rows, "segments", res.Segments, "resumed", res.Resumed)
}

// jobStatus snapshots a job for the wire.
func jobStatus(job *ingestJob) api.IngestStatus {
	p := job.ing.Progress()
	st := api.IngestStatus{
		State:          api.IngestRunning,
		Planned:        p.Planned,
		TotalIntervals: p.TotalIntervals,
		DoneIntervals:  p.DoneIntervals,
		TotalRows:      p.TotalRows,
		DoneRows:       p.DoneRows,
		Resumed:        p.Resumed,
	}
	select {
	case <-job.done:
		job.mu.Lock()
		if job.err != nil {
			st.State = api.IngestFailed
			st.Error = job.err.Error()
		} else {
			st.State = api.IngestDone
			st.Dataset = job.info
		}
		job.mu.Unlock()
	default:
	}
	return st
}

func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	job, ok := s.jobs[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, httpErrorf(http.StatusNotFound, api.CodeNotFound, "no ingest for dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(job))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		writeError(w, requestError("bad explain request", err))
		return
	}
	q, err := sqlparse.Parse(req.SQL)
	if err != nil {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err))
		return
	}
	p, err := sqlparse.BuildPlan(q, nil)
	if err != nil {
		writeError(w, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err))
		return
	}
	resp := api.ExplainResponse{
		Plan:        plan.RenderText(p.Nodes),
		PlanDAG:     make([]api.PlanNode, len(p.Nodes)),
		Operators:   p.Stats.Operators,
		SortsShared: p.Stats.SortsShared,
		TreesShared: p.Stats.TreesShared,
	}
	for i, n := range p.Nodes {
		resp.PlanDAG[i] = api.PlanNode{ID: n.ID, Kind: n.Kind, Label: n.Label, Inputs: n.Inputs, SharedBy: n.SharedBy}
	}
	writeJSON(w, http.StatusOK, resp)
}

// timeoutFor clamps the requested timeout into (0, MaxTimeout].
func (s *Server) timeoutFor(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)).Decode(&req); err != nil {
		writeError(w, requestError("bad query request", err))
		return
	}
	// One deadline bounds the whole request: the wait for a slot, the
	// evaluation, and the streamed response.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMillis))
	defer cancel()
	res, err := s.query(ctx, req.SQL, req.IncludeTrace)
	if err != nil {
		writeError(w, err)
		return
	}

	// From here on the status is committed: a response that fails midway —
	// the client hung up, the deadline passed — is cut short, not replaced
	// by an error envelope.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	start := time.Now()
	out, err := encodeResponse(ctx, w, res)
	respond := time.Since(start)
	s.obs.respondDur.Observe(respond.Seconds())
	if err != nil {
		s.obs.responseAborts.Inc()
		if sw, ok := w.(*statusWriter); ok {
			sw.aborted = true
		}
	} else {
		s.obs.rowsReturned.Add(int64(res.table.Rows()))
	}
	s.logIfSlow(res, respond, out)
}

// logIfSlow writes the slow-query WARN line when snapshot, evaluation and
// response together took at least the configured threshold. The span tree
// ends with the evaluation — it is rendered into the body before the response
// is written — so the response's share is reported beside it, and the part of
// that share spent blocked in the connection's writes beside that.
func (s *Server) logIfSlow(res *queryResult, respond time.Duration, out sent) {
	if s.cfg.SlowQuery <= 0 || res.snapshot+res.elapsed+respond < s.cfg.SlowQuery {
		return
	}
	rows := 0
	if res.table != nil {
		rows = res.table.Rows()
	}
	s.obs.slowQueries.Inc()
	s.log.Warn("slow query",
		"sql", res.sql,
		"snapshot_ms", float64(res.snapshot)/float64(time.Millisecond),
		"elapsed_ms", float64(res.elapsed)/float64(time.Millisecond),
		"respond_ms", float64(respond)/float64(time.Millisecond),
		"write_ms", float64(out.writing)/float64(time.Millisecond),
		"rows", rows,
		"bytes", out.bytes,
		"threshold_ms", float64(s.cfg.SlowQuery)/float64(time.Millisecond),
		"trace", "\n"+res.root.Render(),
	)
}

// pinSnapshot returns the merged table and the delta view of snap, recording
// what building them cost as two children of root: a clean snapshot is its
// frozen base and copies nothing; otherwise the first caller of the epoch
// materialises the table and every later one finds it built.
func (s *Server) pinSnapshot(root *obs.Span, snap *delta.Snapshot) (*core.Table, *core.DeltaView, error) {
	sp := root.Child("snapshot: materialize")
	sp.SetInt("rows", int64(snap.Rows()))
	sp.SetInt("overlay_rows", int64(snap.DeltaRows()))
	sp.Set("clean", strconv.FormatBool(snap.Clean()))
	tab, err := snap.Table()
	sp.End()
	s.obs.materializeDur.Observe(sp.Duration().Seconds())
	if err != nil {
		return nil, nil, fmt.Errorf("materialize: %w", err)
	}
	sp = root.Child("snapshot: view")
	view, err := snap.View()
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("delta view: %w", err)
	}
	return tab, view, nil
}

// query parses, admits and evaluates one statement under ctx, and returns
// its typed result for encodeResponse; nothing is rendered here. The
// admission slot is held for the evaluation only and is free again when
// query returns, so a slow reader of the response never occupies one. Every
// query runs under a trace span: the finished tree feeds the per-function
// evaluation histograms, the slow-query log, and — when the request
// asked for it — the response's trace field.
func (s *Server) query(ctx context.Context, sql string, includeTrace bool) (*queryResult, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
	}
	ds, ok := s.lookup(q.From)
	if !ok {
		return nil, httpErrorf(http.StatusNotFound, api.CodeNotFound, "unknown dataset %q", q.From)
	}

	// Admission: wait for an evaluation slot, but never past the deadline —
	// a query that times out in the queue fails fast without ever occupying
	// a slot, and a query cancelled mid-evaluation releases its slot as
	// soon as the operator observes the context.
	s.obs.admissionDepth.Add(1)
	select {
	case s.limiter <- struct{}{}:
		s.obs.admissionDepth.Add(-1)
	case <-ctx.Done():
		s.obs.admissionDepth.Add(-1)
		s.obs.admissionTimeouts.Inc()
		return nil, httpErrorf(http.StatusServiceUnavailable, api.CodeResourceExhausted,
			"no evaluation slot before deadline: %v", ctx.Err())
	}
	s.obs.admissionInUse.Add(1)
	defer func() {
		<-s.limiter
		s.obs.admissionInUse.Add(-1)
	}()

	// Pin one snapshot for the whole evaluation: the merged table and the
	// delta view are one epoch, regardless of concurrent mutations or
	// compactions. The cache scope carries the frozen generation so a
	// compaction swap retires the old generation's entries wholesale. The
	// first query of an epoch builds both, under the root span like
	// everything else this request waits for.
	root := obs.NewSpan("query")
	root.Set("sql", sql)
	snap := ds.buf.Snapshot()
	pinned := time.Now()
	tab, view, err := s.pinSnapshot(root, snap)
	snapshot := time.Since(pinned)
	if err != nil {
		root.End()
		return nil, httpErrorf(http.StatusInternalServerError, api.CodeInternal, "snapshot of %q: %v", q.From, err)
	}

	start := time.Now()
	table, planStats, err := sqlparse.ExecutePlanned(q, map[string]*core.Table{q.From: tab}, core.Options{
		Context:    ctx,
		Cache:      s.cache,
		CacheScope: genScope(ds.scope, snap.Gen()),
		Delta:      view,
		TaskSize:   s.cfg.TaskSize,
		Trace:      root,
	})
	root.End()
	res := &queryResult{sql: sql, table: table, root: root, snapshot: snapshot, elapsed: time.Since(start)}
	s.obs.observeQuerySpans(root)
	if err != nil {
		s.logIfSlow(res, 0, sent{})
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
	}
	if res.dates, err = sqlparse.DateOutputs(q, ds.dates); err != nil {
		return nil, httpErrorf(http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
	}

	st := s.cache.Stats()
	res.stats = api.QueryStats{
		ElapsedMillis: float64(res.elapsed) / float64(time.Millisecond),
		CacheHits:     st.Hits,
		CacheMisses:   st.Misses,
		Operators:     planStats.Operators,
		SortsShared:   planStats.SortsShared,
		TreesShared:   planStats.TreesShared,
	}
	if includeTrace {
		res.trace = root.Render()
	}
	return res, nil
}
