// Command windowcli evaluates framed holistic window functions over a CSV
// file — the SQL the paper proposes, without a database. A query is one
// statement in the paper's dialect (§2.4), given with -query; the FROM clause
// must name the table "csv":
//
//	windowcli -i lineitem.csv -query "
//	    select l_shipdate, percentile_disc(0.5 order by l_extendedprice)
//	           over (order by l_shipdate rows between 999 preceding and current row) as median
//	    from csv"
//
// Column types are inferred (int, float, ISO dates as days-since-epoch,
// string; empty cells are NULL). An output column renders as ISO dates when
// its values are a date column's: the column itself, or MIN, MAX,
// PERCENTILE_DISC, LEAD, LAG or a value function over it; counts and ranks
// print numbers.
// Results are written as CSV to stdout or -o.
//
// Out-of-core datasets: -ingest converts a CSV into a directory of
// columnar segment files with live progress (resumable if killed), -i may
// name such a directory to query it, and with -server the ingest runs
// server-side with polled progress:
//
//	windowcli -i lineitem.csv -ingest lineitem.seg/ -rows-per-segment 100000
//	windowcli -i lineitem.seg/ -query "select ... from csv"
//
// Live mutation: upload a dataset with -key to give it a mutation key
// column, then stream CSV rows into it with -append (one atomic batch per
// invocation, no reload):
//
//	windowcli -server http://127.0.0.1:8080 -dataset orders -key o_id -i orders.csv
//	windowcli -server http://127.0.0.1:8080 -dataset orders -append -i new_orders.csv
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"holistic"
	"holistic/internal/csvio"
	"holistic/internal/ingest"
	"holistic/internal/segment"
	"holistic/internal/server/api"
	"holistic/internal/sqlparse"
)

var (
	input     = flag.String("i", "-", "input CSV file (default stdin)")
	output    = flag.String("o", "-", "output CSV file (default stdout)")
	query     = flag.String("query", "", "SQL statement (paper dialect) to evaluate; FROM must name 'csv'")
	explain   = flag.Bool("explain", false, "with -query: print the evaluation plan instead of running")
	trace     = flag.Bool("trace", false, "print the evaluation's span tree (phases, per-function evals, workers) to stderr")
	server    = flag.String("server", "", "windowd base URL (e.g. http://127.0.0.1:8080); runs -query remotely instead of locally")
	dataset   = flag.String("dataset", "", "with -server: dataset name; uploads -i under this name before querying")
	timeoutMS = flag.Int64("timeout-ms", 0, "with -server: per-query timeout in milliseconds (0 = server default)")
	ingestTo  = flag.String("ingest", "", "ingest the CSV at -i into this segment dataset directory with live progress (with -server: server-side ingest registered as -dataset)")
	segRows   = flag.Int("rows-per-segment", 0, "with -ingest: rows per segment file (0 = default)")
	keyCol    = flag.String("key", "", "with -server -dataset uploads: mutation key column (enables upserts and deletes on the dataset)")
	appendCSV = flag.Bool("append", false, "with -server -dataset: apply the CSV rows at -i as one atomic append batch to the live dataset instead of reloading it")
)

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "windowcli:", err)
		os.Exit(1)
	}
}

func main() {
	flag.Parse()
	if *server != "" {
		fail(runRemote())
		return
	}
	if *ingestTo != "" {
		fail(runIngest())
		return
	}
	if *query == "" {
		fail(fmt.Errorf("missing -query"))
	}
	if *explain {
		sp, err := holistic.PlanSQL(*query)
		fail(err)
		fmt.Print(holistic.RenderPlan(sp.Nodes))
		fmt.Printf("operators=%d sorts_shared=%d trees_shared=%d preprocess_shared=%d\n",
			sp.Stats.Operators, sp.Stats.SortsShared, sp.Stats.TreesShared, sp.Stats.PreprocessShared)
		return
	}
	file, err := readInput()
	fail(err)
	result, dates, err := evalLocal(file)
	fail(err)

	var out io.Writer = os.Stdout
	if *output != "-" {
		f, err := os.Create(*output)
		fail(err)
		defer f.Close()
		out = f
	}
	fail(csvio.Write(out, result, dates))
}

// evalLocal evaluates -query over file. Beside the result it returns which
// of its columns render as ISO dates: a statement can rename and derive
// columns, so its outputs resolve their own (sqlparse.DateOutputs).
func evalLocal(file *csvio.File) (*holistic.Table, map[string]bool, error) {
	var root *holistic.Span
	if *trace {
		root = holistic.NewTrace("query")
	}
	result, err := holistic.RunSQLOptions(*query, map[string]*holistic.Table{"csv": file.Table}, holistic.Options{Trace: root})
	if root != nil {
		root.End()
		fmt.Fprint(os.Stderr, root.Render())
	}
	if err != nil {
		return nil, nil, err
	}
	dates, err := sqlDateOutputs(*query, file.DateColumns)
	return result, dates, err
}

// sqlDateOutputs resolves which output columns of a statement render as ISO
// dates, from the date columns of the table it reads.
func sqlDateOutputs(query string, srcDates map[string]bool) (map[string]bool, error) {
	q, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	return sqlparse.DateOutputs(q, srcDates)
}

// readInput loads -i: stdin, a CSV file, or a segment dataset directory
// (as written by -ingest), which materializes without re-parsing any CSV.
func readInput() (*csvio.File, error) {
	if *input == "-" {
		return csvio.Read(os.Stdin)
	}
	st, err := os.Stat(*input)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		d, err := segment.OpenDir(*input)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		return d.File(nil)
	}
	f, err := os.Open(*input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csvio.Read(f)
}

// runIngest converts the CSV at -i into a segment dataset directory
// locally, printing live progress to stderr. A killed run resumes from the
// directory's persisted state on the next invocation.
func runIngest() error {
	if *input == "" || *input == "-" {
		return fmt.Errorf("-ingest needs -i pointing at a CSV file (stdin is not seekable)")
	}
	ing := ingest.New(*input, *ingestTo, ingest.Options{RowsPerSegment: *segRows})
	done := make(chan struct{})
	var res *ingest.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = ing.Run(context.Background())
	}()
	progress := func() {
		p := ing.Progress()
		if !p.Planned {
			fmt.Fprintf(os.Stderr, "\rwindowcli: planning %s...", *input)
			return
		}
		fmt.Fprintf(os.Stderr, "\rwindowcli: ingest %d/%d intervals, %d/%d rows (%d resumed)   ",
			p.DoneIntervals, p.TotalIntervals, p.DoneRows, p.TotalRows, p.Resumed)
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			progress()
		case <-done:
			progress()
			fmt.Fprintln(os.Stderr)
			if runErr != nil {
				return runErr
			}
			fmt.Fprintf(os.Stderr, "windowcli: ingested %d rows into %d segments at %s (%d resumed)\n",
				res.Rows, res.Segments, *ingestTo, res.Resumed)
			return nil
		}
	}
}

// remoteIngest starts a server-side ingest of the server-visible CSV path
// -i into -ingest and polls progress until it settles.
func remoteIngest(ctx context.Context, c *api.Client) error {
	if *dataset == "" {
		return fmt.Errorf("-server -ingest needs -dataset")
	}
	st, err := c.StartIngest(ctx, *dataset, api.RegisterRequest{Path: *input, Dir: *ingestTo, RowsPerSegment: *segRows})
	if err != nil {
		return err
	}
	for st.State == api.IngestRunning {
		fmt.Fprintf(os.Stderr, "\rwindowcli: ingest %d/%d intervals, %d/%d rows (%d resumed)   ",
			st.DoneIntervals, st.TotalIntervals, st.DoneRows, st.TotalRows, st.Resumed)
		time.Sleep(200 * time.Millisecond)
		if st, err = c.IngestStatus(ctx, *dataset); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr)
	if st.State == api.IngestFailed || st.Dataset == nil {
		return fmt.Errorf("ingest failed: %s", st.Error)
	}
	fmt.Fprintf(os.Stderr, "windowcli: ingested %s v%d (%d rows, %d segments)\n",
		st.Dataset.Name, st.Dataset.Version, st.Dataset.Rows, st.Dataset.Segments)
	return nil
}

// remoteAppend reads the CSV at -i (header plus rows, same text forms as a
// dataset upload) and applies its rows as one atomic append batch to the
// live dataset -dataset, advancing its epoch by one.
func remoteAppend(ctx context.Context, c *api.Client) error {
	if *dataset == "" {
		return fmt.Errorf("-append needs -dataset")
	}
	var src io.Reader = os.Stdin
	if *input != "" && *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	records, err := csv.NewReader(src).ReadAll()
	if err != nil {
		return err
	}
	if len(records) < 2 {
		return fmt.Errorf("-append needs a CSV header plus at least one row")
	}
	header := records[0]
	muts := make([]api.MutationSpec, 0, len(records)-1)
	for _, rec := range records[1:] {
		row := make(map[string]string, len(header))
		for i, col := range header {
			if i < len(rec) && rec[i] != "" {
				row[col] = rec[i]
			}
		}
		muts = append(muts, api.MutationSpec{Op: api.OpAppend, Row: row})
	}
	resp, err := c.Mutate(ctx, *dataset, api.MutateRequest{Mutations: muts})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "windowcli: appended %d rows to %s (epoch %d, %d rows live)\n",
		resp.Applied, *dataset, resp.Epoch, resp.Rows)
	return nil
}

// runRemote drives a windowd server through the shared api client: it
// optionally uploads -i as -dataset (or runs a server-side -ingest), applies
// -append batches to live datasets, then runs -query (or -explain) and
// writes the result as CSV.
func runRemote() error {
	c := &api.Client{BaseURL: *server}
	ctx := context.Background()
	if *ingestTo != "" {
		if err := remoteIngest(ctx, c); err != nil {
			return err
		}
	} else if *appendCSV {
		if err := remoteAppend(ctx, c); err != nil {
			return err
		}
	} else if *dataset != "" && *input != "" && *input != "-" {
		data, err := os.ReadFile(*input)
		if err != nil {
			return err
		}
		var info *api.DatasetInfo
		var err2 error
		if *keyCol != "" {
			info, err2 = c.UploadCSVKeyed(ctx, *dataset, *keyCol, data)
		} else {
			info, err2 = c.UploadCSV(ctx, *dataset, data)
		}
		if err2 != nil {
			return err2
		}
		fmt.Fprintf(os.Stderr, "windowcli: uploaded %s v%d (%d rows)\n", info.Name, info.Version, info.Rows)
	}
	if *query == "" {
		return nil // upload-only invocation
	}
	if *explain {
		resp, err := c.Explain(ctx, *query)
		if err != nil {
			return err
		}
		fmt.Print(resp.Plan)
		fmt.Printf("operators=%d sorts_shared=%d trees_shared=%d\n",
			resp.Operators, resp.SortsShared, resp.TreesShared)
		return nil
	}
	body, err := c.QueryBody(ctx, api.QueryRequest{SQL: *query, TimeoutMillis: *timeoutMS, IncludeTrace: *trace})
	if err != nil {
		return err
	}
	defer body.Close()
	if *output == "-" {
		return writeCSV(body, os.Stdout, os.Stderr)
	}
	f, err := os.Create(*output)
	if err != nil {
		return err
	}
	if err := writeCSV(body, f, os.Stderr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV turns a /v1/query body into CSV while it is read: the columns,
// then each element of "rows" as soon as it is decoded, so no more than one
// row is held. A NULL is already an empty cell, so the rows of "nulls" are
// read and dropped, and so are the stats; the trace goes to traceOut.
func writeCSV(body io.Reader, out, traceOut io.Writer) error {
	dec := json.NewDecoder(body)
	cw := csv.NewWriter(out)
	if err := expectDelim(dec, '{'); err != nil {
		return err
	}
	var row []string
	var mask []bool
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		switch key {
		case "columns":
			if err = dec.Decode(&row); err == nil {
				err = cw.Write(row)
			}
		case "rows":
			err = eachElement(dec, func() error {
				if err := dec.Decode(&row); err != nil {
					return err
				}
				return cw.Write(row)
			})
		case "nulls":
			err = eachElement(dec, func() error { return dec.Decode(&mask) })
		case "trace":
			var trace string
			if err = dec.Decode(&trace); err == nil {
				_, err = fmt.Fprint(traceOut, trace)
			}
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// eachElement reads a JSON array from dec, calling elem to decode each of its
// elements in turn.
func eachElement(dec *json.Decoder, elem func() error) error {
	if err := expectDelim(dec, '['); err != nil {
		return err
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	return expectDelim(dec, ']')
}

// expectDelim reads the body's next token, which must be the delimiter d.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err == nil && tok != d {
		err = fmt.Errorf("response body: got %v, want %v", tok, d)
	}
	return err
}
