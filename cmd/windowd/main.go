// Command windowd serves framed holistic window queries over HTTP.
//
// Datasets are CSV files registered at startup (-load name=path) or over
// the API (POST /v1/datasets/{name} with a CSV body or a JSON {"path": ...}).
// Out-of-core segment datasets register from directories (-load-dir
// name=dir, or POST with {"source":"dir","dir":...}), and the server
// ingests CSVs into segment directories asynchronously (POST with
// {"source":"ingest","path":...,"dir":...}; progress at
// GET /v1/datasets/{name}/ingest).
//
// Datasets loaded as name=path#keycol take live mutations: POST
// /v1/datasets/{name}/mutations applies an atomic batch of
// append/upsert/delete rows addressed by the key column, advancing the
// dataset's epoch; queries keep answering from immutable snapshots, and a
// background compactor (-compact-rows, -compact-interval) folds grown
// mutation overlays back into frozen generations. Queries are SQL
// statements in the paper's dialect whose FROM clause names a dataset:
//
//	windowd -addr :8080 -load orders=orders.csv &
//	curl -s localhost:8080/v1/query -d '{"sql":
//	    "select o_date, percentile_disc(0.5 order by o_total)
//	     over (order by o_date rows between 999 preceding and current row) as median
//	     from orders"}'
//
// Built merge sort trees and preprocessed arrays are cached across queries
// under a byte budget (-cache-bytes). Observability: /v1/metrics exposes the
// Prometheus text exposition (request/eval/respond latency histograms, cache,
// pool, arena, kernel, ingest and delta counters) and GET /v1/datasets lists
// each dataset's version, rows, columns, segments and epoch — the server's
// two status surfaces; -slow-query logs the span trees of statements whose evaluation plus
// response were slow, and -debug-addr serves net/http/pprof on a separate
// opt-in listener. Query responses stream and may be cut short when the
// client disconnects or the request's deadline passes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"holistic/internal/server"
)

// loadFlags collects repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }

func (l *loadFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheBytes      = flag.Int64("cache-bytes", 1<<30, "tree cache budget in bytes (0 = unlimited)")
		maxConcurrent   = flag.Int("max-concurrent", 4, "maximum queries evaluating at once")
		defaultTimeout  = flag.Duration("default-timeout", 30*time.Second, "query timeout when the request sets none")
		maxTimeout      = flag.Duration("max-timeout", 5*time.Minute, "upper bound on per-request timeouts")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries")
		slowQuery       = flag.Duration("slow-query", 0, "log queries whose evaluation plus response take at least this long at WARN with their span tree (0 = disabled)")
		debugAddr       = flag.String("debug-addr", "", "listen address for the pprof debug server (empty = disabled)")
		maxUploadBytes  = flag.Int64("max-upload-bytes", 256<<20, "largest accepted request body (registration, mutation, query, explain); oversized bodies answer 413")
		compactRows     = flag.Int("compact-rows", 0, "mutation overlay size that triggers compaction into a new frozen generation (0 = adaptive)")
		compactInterval = flag.Duration("compact-interval", 2*time.Second, "how often the background compactor checks mutated datasets (0 = disabled)")
		loads           loadFlags
		loadDirs        loadFlags
	)
	flag.Var(&loads, "load", "dataset to load at startup as name=path (append #keycol to enable upserts and deletes; repeatable)")
	flag.Var(&loadDirs, "load-dir", "segment dataset directory to register at startup as name=dir (repeatable)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := server.New(server.Config{
		CacheBytes:      *cacheBytes,
		MaxConcurrent:   *maxConcurrent,
		DefaultTimeout:  *defaultTimeout,
		MaxTimeout:      *maxTimeout,
		SlowQuery:       *slowQuery,
		MaxUploadBytes:  *maxUploadBytes,
		CompactRows:     *compactRows,
		CompactInterval: *compactInterval,
		Logger:          log,
	})
	defer srv.Close()
	for _, l := range loads {
		name, path, _ := strings.Cut(l, "=")
		// name=path#keycol wires the key column live mutations address
		// rows by; without one the dataset is append-only under mutation.
		path, keyCol, _ := strings.Cut(path, "#")
		info, err := srv.RegisterPathKeyed(name, path, keyCol)
		if err != nil {
			log.Error("load dataset", "dataset", name, "path", path, "err", err)
			os.Exit(1)
		}
		log.Info("loaded dataset", "dataset", info.Name, "rows", info.Rows, "columns", len(info.Columns), "key", keyCol)
	}
	for _, l := range loadDirs {
		name, dir, _ := strings.Cut(l, "=")
		info, err := srv.RegisterDir(name, dir)
		if err != nil {
			log.Error("load segment dataset", "dataset", name, "dir", dir, "err", err)
			os.Exit(1)
		}
		log.Info("loaded segment dataset", "dataset", info.Name, "rows", info.Rows, "segments", info.Segments)
	}

	// The pprof endpoints live on their own opt-in listener, never on the
	// query port: profiles expose internals no API client should reach.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Error("debug listen", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		go func() {
			log.Info("pprof debug server listening", "addr", dln.Addr().String())
			if err := http.Serve(dln, dmux); err != nil {
				log.Error("debug serve", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Info("windowd listening", "addr", ln.Addr().String())
		errCh <- httpSrv.Serve(ln)
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Error("serve", "err", err)
		os.Exit(1)
	case sig := <-stop:
		log.Info("shutting down", "signal", sig.String())
	}

	// Graceful shutdown: stop accepting, drain in-flight queries, then give
	// up after the drain timeout.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Error("shutdown", "err", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve", "err", err)
		os.Exit(1)
	}
	log.Info("drained, bye")
}
