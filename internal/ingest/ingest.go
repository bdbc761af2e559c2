package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"holistic/internal/core"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/segment"
)

// DefaultRowsPerSegment is the interval size when Options leaves it unset.
const DefaultRowsPerSegment = 100_000

// Options configures an ingest run.
type Options struct {
	// RowsPerSegment is the interval size: each interval becomes one
	// segment file. <= 0 selects DefaultRowsPerSegment.
	RowsPerSegment int
	// BlockRows is the segment block granularity (<= 0: segment default).
	BlockRows int
}

// Result summarizes a completed ingest.
type Result struct {
	// Rows is the dataset's total row count.
	Rows int64
	// Segments is the number of segment files in the dataset.
	Segments int
	// Resumed counts intervals skipped because a previous run already
	// completed them.
	Resumed int
}

// Progress is a point-in-time snapshot of a running ingest, served by
// windowd's ingest-status endpoint and windowcli's live progress display.
type Progress struct {
	// Planned reports whether the planning pass has finished; interval
	// and row totals are zero until it has.
	Planned bool
	// TotalIntervals and DoneIntervals count planned and finished
	// intervals (including resumed ones).
	TotalIntervals int
	DoneIntervals  int
	// TotalRows and DoneRows count data rows.
	TotalRows int64
	DoneRows  int64
	// Resumed counts intervals inherited from a previous run's state.
	Resumed int
}

// Ingester runs one source-to-dataset ingest and exposes live progress.
// Create with New, run with Run (once), poll with Progress from any
// goroutine.
type Ingester struct {
	src, dest string
	opt       Options

	planned        atomic.Bool
	totalIntervals atomic.Int64
	doneIntervals  atomic.Int64
	totalRows      atomic.Int64
	doneRows       atomic.Int64
	resumed        atomic.Int64

	mu    sync.Mutex // guards state persistence
	state *State
}

// New prepares an ingest of the CSV file src into the dataset directory
// dest (created if missing).
func New(src, dest string, opt Options) *Ingester {
	if opt.RowsPerSegment <= 0 {
		opt.RowsPerSegment = DefaultRowsPerSegment
	}
	return &Ingester{src: src, dest: dest, opt: opt}
}

// Progress returns a consistent-enough snapshot for display: counters are
// individually atomic.
func (ing *Ingester) Progress() Progress {
	return Progress{
		Planned:        ing.planned.Load(),
		TotalIntervals: int(ing.totalIntervals.Load()),
		DoneIntervals:  int(ing.doneIntervals.Load()),
		TotalRows:      ing.totalRows.Load(),
		DoneRows:       ing.doneRows.Load(),
		Resumed:        int(ing.resumed.Load()),
	}
}

// Run executes the ingest: plan (or resume from persisted state), then
// fan the pending intervals out to a worker pool, persisting progress
// after every interval. Cancelling ctx stops cleanly; a later Run with
// the same destination resumes from the last persisted interval.
func (ing *Ingester) Run(ctx context.Context) (*Result, error) {
	runsStarted.Inc()
	res, err := ing.run(ctx)
	if err != nil {
		runsFailed.Inc()
		return nil, err
	}
	runsCompleted.Inc()
	return res, nil
}

func (ing *Ingester) run(ctx context.Context) (*Result, error) {
	if err := os.MkdirAll(ing.dest, 0o755); err != nil {
		return nil, err
	}
	fp, err := fingerprint(ing.src)
	if err != nil {
		return nil, err
	}
	st, err := loadState(ing.dest)
	if err != nil {
		return nil, err
	}
	if !st.usable(ing.src, fp, ing.opt.RowsPerSegment) {
		if st != nil {
			// Stale state: different source, changed file or different
			// segmentation. Start over rather than mixing runs.
			if err := ing.clearDataset(); err != nil {
				return nil, err
			}
		}
		st, err = plan(ing.src, ing.opt.RowsPerSegment)
		if err != nil {
			return nil, err
		}
		if err := st.save(ing.dest); err != nil {
			return nil, err
		}
	}
	if len(st.Intervals) == 0 {
		return nil, fmt.Errorf("ingest: %s has no data rows", ing.src)
	}
	ing.state = st
	ing.totalIntervals.Store(int64(len(st.Intervals)))
	var total int64
	for _, iv := range st.Intervals {
		total += int64(iv.Rows)
	}
	ing.totalRows.Store(total)
	ing.planned.Store(true)

	// Partition intervals into already-done (previous run) and pending.
	var pending []Interval
	for _, iv := range st.Intervals {
		done := st.Completed[iv.Index]
		if done != nil && done.Rows == iv.Rows && segmentExists(ing.dest, iv.Index) {
			ing.resumed.Add(1)
			ing.doneIntervals.Add(1)
			ing.doneRows.Add(int64(iv.Rows))
			intervalsResumed.Inc()
			continue
		}
		pending = append(pending, iv)
	}

	var firstErr atomic.Pointer[error]
	perr := parallel.ForEachContext(ctx, len(pending), func(task int) {
		if firstErr.Load() != nil {
			return
		}
		if err := ing.ingestInterval(pending[task]); err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	if perr != nil {
		return nil, perr
	}
	return &Result{
		Rows:     total,
		Segments: len(st.Intervals),
		Resumed:  int(ing.resumed.Load()),
	}, nil
}

// ingestInterval parses one interval and writes its segment, then persists
// the completion.
func (ing *Ingester) ingestInterval(iv Interval) error {
	file, err := parseInterval(ing.src, ing.state, iv)
	if err != nil {
		return err
	}
	w, err := segment.NewWriter(filepath.Join(ing.dest, segmentName(iv.Index)), ing.opt.BlockRows)
	if err != nil {
		return err
	}
	if err := w.WriteTable(file, iv.StartRow); err != nil {
		w.Abort()
		return err
	}
	id, err := w.Finish()
	if err != nil {
		return err
	}
	ing.mu.Lock()
	ing.state.Completed[iv.Index] = &Completed{SegmentID: id, Rows: iv.Rows}
	err = ing.state.save(ing.dest)
	ing.mu.Unlock()
	if err != nil {
		return err
	}
	ing.doneIntervals.Add(1)
	ing.doneRows.Add(int64(iv.Rows))
	rowsIngested.Add(int64(iv.Rows))
	segmentsWritten.Inc()
	return nil
}

// clearDataset removes segments and state from the destination, keeping
// unrelated files.
func (ing *Ingester) clearDataset() error {
	entries, err := os.ReadDir(ing.dest)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segment.FileSuffix || e.Name() == StateFile {
			if err := os.Remove(filepath.Join(ing.dest, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// segmentExists reports whether interval i's segment file is present.
func segmentExists(dest string, i int) bool {
	_, err := os.Stat(filepath.Join(dest, segmentName(i)))
	return err == nil
}

// newTable builds a core table (indirection so plan.go needs no core
// import beyond this).
func newTable(cols []*core.Column) (*core.Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("ingest: source has no columns")
	}
	return core.NewTable(cols...)
}

// Ingest counters, process-wide in obs.Default.
var (
	runsByState = obs.Default.NewCounter("windowd_ingest_runs_total",
		"Ingest runs by outcome: started, completed, failed.", "state")
	runsStarted   = runsByState.With("started")
	runsCompleted = runsByState.With("completed")
	runsFailed    = runsByState.With("failed")
	rowsIngested  = obs.Default.NewCounter("windowd_ingest_rows_total",
		"Data rows written into segment files by the ingest pipeline.").With()
	segmentsWritten = obs.Default.NewCounter("windowd_ingest_segments_written_total",
		"Segment files written by the ingest pipeline.").With()
	intervalsResumed = obs.Default.NewCounter("windowd_ingest_intervals_resumed_total",
		"Intervals skipped on resume because a previous run completed them.").With()
)
