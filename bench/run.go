package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"holistic/internal/server/api"
)

// harness is what one invocation shares across workloads and passes.
type harness struct {
	work    string // scratch directory for binaries, inputs and ingest targets
	launch  launcher
	seed    int64
	seconds float64
	smoke   bool // tiny tables, three operations, in-process server
	setups  int  // set-ups per end-to-end run; setup_s is their median
	tr      *tracer
	log     io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one pass over one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const dataset = "events"

// prepared is a workload's generated inputs and planned operations.
type prepared struct {
	w      *workload
	specs  []colSpec
	d      *data // the table as registered, never mutated
	files  inputFiles
	csv    []byte // CSV bytes, for workloads that upload them
	warm   []op
	timed  []op
	ingest int // ingest target directories used so far
}

func (h *harness) rows(w *workload) int {
	if h.smoke {
		return smokeRows
	}
	return w.Rows
}

func (h *harness) prepare(w *workload) (*prepared, error) {
	p := &prepared{w: w, specs: pickCols(eventsSchema(), w.Cols...)}
	rows := h.rows(w)
	p.d = generate(p.specs, rows, h.seed)
	wantCSV := w.Reg != regLoadDir
	var err error
	if p.files, err = materialize(h.work, w.Name, p.d, p.specs, h.seed, wantCSV, !wantCSV); err != nil {
		return nil, err
	}
	if w.Reg == regUploadKeyed {
		if p.csv, err = os.ReadFile(p.files.CSV); err != nil {
			return nil, err
		}
	}
	n := w.ops(h.seconds)
	if h.smoke {
		n = 3
	}
	model := p.d
	if w.Mutates {
		model = generate(p.specs, rows, h.seed) // planning mutates its model
	}
	ops, err := newPlanner(w, model, dataset, h.seed, w.Warmups+n).all()
	if err != nil {
		return nil, err
	}
	p.warm, p.timed = ops[:w.Warmups], ops[w.Warmups:]
	return p, nil
}

// verify is the correctness pass: every statement template of the workload,
// at fresh parameters, runs against a small table on a server started with
// the workload's flags; the fully decoded answers must equal the naive
// evaluator's, cell for cell.
func (h *harness) verify(p *prepared) (err error) {
	const name, ops = "verify", 3
	model := generate(p.specs, min(verifyRows, h.rows(p.w)), h.seed+1)
	csv, err := model.csvBytes()
	if err != nil {
		return err
	}
	tgt, err := h.launch(p.w.Args)
	if err != nil {
		return err
	}
	cl := newClient(tgt)
	defer func() {
		cl.close()
		err = errors.Join(err, tgt.stop())
	}()
	ctx := context.Background()
	if p.w.Mutates {
		_, err = cl.api.UploadCSVKeyed(ctx, name, "id", csv)
	} else {
		_, err = cl.api.UploadCSV(ctx, name, csv)
	}
	if err != nil {
		return err
	}
	plan := newPlanner(p.w, model, name, h.seed+1, ops)
	for i := 0; i < ops; i++ {
		o, err := plan.next()
		if err != nil {
			return err
		}
		if o.Mutations != nil {
			if _, _, err := cl.post(api.PathDatasets+"/"+name+"/mutations", o.Mutations); err != nil {
				return err
			}
		}
		body, _, err := cl.post(api.PathQuery, o.Query)
		if err != nil {
			return err
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if err := compare(&resp, naiveEval(model, o.Stmt), o.Stmt); err != nil {
			return fmt.Errorf("verify %s: %s: %w", p.w.Name, o.Stmt.sql(name), err)
		}
	}
	return nil
}

// compare checks a decoded response against the naive answers by id.
func compare(resp *api.QueryResponse, want map[int64][]string, s statement) error {
	if len(resp.Rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), len(want))
	}
	seen := make(map[string]bool, len(want))
	for r, row := range resp.Rows {
		if len(row) != 1+len(s.Funcs) {
			return fmt.Errorf("row %d has %d cells, want %d", r, len(row), 1+len(s.Funcs))
		}
		var id int64
		if _, err := fmt.Sscan(row[0], &id); err != nil || seen[row[0]] {
			return fmt.Errorf("row %d: bad or repeated id %q", r, row[0])
		}
		seen[row[0]] = true
		exp, ok := want[id]
		if !ok {
			return fmt.Errorf("row %d: id %d is not a live row", r, id)
		}
		for k, cell := range row[1:] {
			null := resp.Nulls != nil && resp.Nulls[r][k+1]
			if cell != exp[k] || null != (exp[k] == "") {
				return fmt.Errorf("id %d, %s: got %q (null=%v), want %q", id, s.Funcs[k].sql(), cell, null, exp[k])
			}
		}
	}
	return nil
}

// setUp starts a fresh server, registers the dataset along the workload's
// registration path and answers the warm-up operations. The returned
// duration is setup_s: process exec → dataset registered → warm-ups answered.
func (h *harness) setUp(p *prepared) (tgt *target, cl *client, took time.Duration, err error) {
	start := time.Now()
	args := slices.Clone(p.w.Args)
	switch p.w.Reg {
	case regLoadDir:
		args = append(args, "-load-dir", dataset+"="+p.files.SegDir)
	case regLoadCSV:
		args = append(args, "-load", dataset+"="+p.files.CSV)
	}
	if tgt, err = h.launch(args); err != nil {
		return nil, nil, 0, err
	}
	cl = newClient(tgt)
	defer func() {
		if err != nil {
			cl.close()
			err = errors.Join(err, tgt.stop())
		}
	}()
	ctx := context.Background()
	switch p.w.Reg {
	case regIngest:
		// A fresh target directory each time: the ingester resumes from
		// state it finds, which would make later set-ups cheaper.
		p.ingest++
		dir := filepath.Join(h.work, "run", fmt.Sprintf("ingest-%d-%d", os.Getpid(), p.ingest))
		st, err := cl.api.StartIngest(ctx, dataset, api.RegisterRequest{Path: p.files.CSV, Dir: dir})
		for err == nil && st.State == api.IngestRunning {
			time.Sleep(5 * time.Millisecond)
			st, err = cl.api.IngestStatus(ctx, dataset)
		}
		if err == nil && st.State != api.IngestDone {
			err = fmt.Errorf("ingest %s: %s", st.State, st.Error)
		}
		if err != nil {
			return nil, nil, 0, err
		}
	case regUploadKeyed:
		if _, err = cl.api.UploadCSVKeyed(ctx, dataset, "id", p.csv); err != nil {
			return nil, nil, 0, err
		}
	}
	for _, o := range p.warm {
		if _, err = runOp(cl, o, false); err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return tgt, cl, time.Since(start), nil
}

// opTiming is what one operation took: the mutation POST (zero for read-only
// workloads), the query, and the query response's size.
type opTiming struct {
	mutate, query time.Duration
	bytes         int
}

var errRowCount = errors.New("row-count mismatch")

// runOp performs one operation: the mutation batch if there is one, then the
// statement. The response stays in the client's buffer; only its rows are
// counted.
func runOp(cl *client, o op, traced bool) (t opTiming, err error) {
	if o.Mutations != nil {
		if _, t.mutate, err = cl.post(api.PathDatasets+"/"+dataset+"/mutations", o.Mutations); err != nil {
			return t, err
		}
	}
	req := o.Query
	if traced {
		req = o.QueryTraced
	}
	body, d, err := cl.post(api.PathQuery, req)
	if err != nil {
		return t, err
	}
	t.query, t.bytes = d, len(body)
	if got := countRows(body); got != o.Rows {
		return t, fmt.Errorf("%w: %d rows, want %d", errRowCount, got, o.Rows)
	}
	return t, nil
}

// endToEnd measures a workload as its user sees it, with tracing off.
func (h *harness) endToEnd(w *workload) (res result, err error) {
	p, err := h.prepare(w)
	if err != nil {
		return res, err
	}
	if err := h.verify(p); err != nil {
		return res, err
	}
	var tgt *target
	var cl *client
	var setups []float64
	for i := 0; i < h.setups; i++ {
		var took time.Duration
		if tgt, cl, took, err = h.setUp(p); err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		if i < h.setups-1 { // the last server answers the timed phase
			cl.close()
			if err := tgt.stop(); err != nil {
				return res, err
			}
		}
	}
	defer func() {
		cl.close()
		err = errors.Join(err, tgt.stop())
	}()

	// Counters and /proc are read once before and once after the timed
	// phase, never inside it.
	before, err := cl.scrape()
	if err != nil {
		return res, err
	}
	cpu0, err := procCPU(tgt.pid)
	if err != nil {
		return res, err
	}
	res.Correct = true
	var lat []float64
	wantRows, delivered := 0, 0
	start := time.Now()
	for i, o := range p.timed {
		res.Attempted++
		wantRows += o.Rows
		t, err := runOp(cl, o, false)
		if err != nil {
			// A failed operation has no latency.
			res.Failed++
			res.Correct = res.Correct && !errors.Is(err, errRowCount)
			fmt.Fprintf(h.log, "%s: op %d failed: %v\n", w.Name, i, err)
			continue
		}
		lat = append(lat, ms(t.mutate+t.query))
		delivered += o.Rows
	}
	wall := time.Since(start)
	cpu1, err := procCPU(tgt.pid)
	if err != nil {
		return res, err
	}
	rss, err := procPeakRSS(tgt.pid)
	if err != nil {
		return res, err
	}
	after, err := cl.scrape()
	if err != nil {
		return res, err
	}
	const rowsFamily = "windowd_rows_returned_total"
	if got := familySum(after, rowsFamily) - familySum(before, rowsFamily); int(got) != wantRows {
		res.Correct = false
		fmt.Fprintf(h.log, "%s: %s grew by %.0f, want %d\n", w.Name, rowsFamily, got, wantRows)
	}
	if len(lat) == 0 {
		return res, fmt.Errorf("%s: every operation failed", w.Name)
	}
	res.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"query_p50_ms":     {median(lat), "ms"},
		"rows_per_s":       {float64(delivered) / wall.Seconds(), "rows/s"},
		"cpu_ms_per_query": {ms(cpu1-cpu0) / float64(res.Attempted), "ms"},
		"peak_rss_mb":      {float64(rss) / (1 << 20), "MB"},
	}
	return res, nil
}
