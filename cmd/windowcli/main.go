// Command windowcli evaluates framed holistic window functions over a CSV
// file — the SQL the paper proposes, without a database. Either via flags:
//
//	windowcli -i lineitem.csv -order-by l_shipdate \
//	    -mode rows -preceding 999 \
//	    -func percentile_disc -p 0.5 -value l_extendedprice -as median
//
// or as a full SQL statement in the paper's dialect (the FROM clause must
// name the table "csv"):
//
//	windowcli -i lineitem.csv -query "
//	    select l_shipdate, percentile_disc(0.5 order by l_extendedprice)
//	           over (order by l_shipdate rows between 999 preceding and current row) as median
//	    from csv"
//
// Column types are inferred (int, float, ISO dates as days-since-epoch,
// string; empty cells are NULL); date columns render back as dates.
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
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"strings"
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
	partition = flag.String("partition-by", "", "comma-separated partition columns")
	orderBy   = flag.String("order-by", "", "window ORDER BY column (prefix with '-' for descending)")
	mode      = flag.String("mode", "rows", "frame mode: rows, range, groups")
	preceding = flag.String("preceding", "unbounded", "frame start offset (number, 'unbounded', or 'current')")
	following = flag.String("following", "current", "frame end offset (number, 'unbounded', or 'current')")
	exclude   = flag.String("exclude", "", "frame exclusion: '', current, group, ties")
	funcName  = flag.String("func", "", "window function: count_distinct, sum_distinct, avg_distinct, rank, dense_rank, percent_rank, row_number, cume_dist, ntile, percentile_disc, percentile_cont, median, nth_value, first_value, last_value, lead, lag, sum, avg, min, max, count")
	value     = flag.String("value", "", "argument / function ORDER BY column (prefix with '-' for descending)")
	fraction  = flag.Float64("p", 0.5, "percentile fraction")
	nArg      = flag.Int64("n", 1, "n for ntile / nth_value / lead / lag offsets")
	asName    = flag.String("as", "result", "output column name")
	query     = flag.String("query", "", "full SQL statement (paper dialect); overrides the per-function flags; FROM must name 'csv'")
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
	if *funcName == "" && *query == "" {
		fail(fmt.Errorf("missing -func or -query"))
	}
	if *explain {
		if *query == "" {
			fail(fmt.Errorf("-explain requires -query"))
		}
		sp, err := holistic.PlanSQL(*query, nil)
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

// evalLocal evaluates -query, or the function the flags describe, over file.
// Beside the result it returns which of its columns render as ISO dates: on
// the -func path input columns keep their names, so the file's date columns
// apply as they are, and the -as column is a date when the function returns
// a date column's values; a statement can rename and derive columns, so its
// outputs resolve their own (sqlparse.DateOutputs).
func evalLocal(file *csvio.File) (*holistic.Table, map[string]bool, error) {
	var opts []holistic.Option
	var root *holistic.Span
	if *trace {
		root = holistic.NewTrace("query")
		opts = append(opts, holistic.WithTrace(root))
	}
	dates := file.DateColumns
	var result *holistic.Table
	var err error
	if *query != "" {
		result, err = holistic.RunSQLWith(*query, map[string]*holistic.Table{"csv": file.Table}, opts...)
		if err == nil {
			dates, err = sqlDateOutputs(*query, file.DateColumns)
		}
	} else {
		var valueCol string
		result, valueCol, err = runFlags(file.Table, opts)
		if dates[valueCol] {
			dates = maps.Clone(dates)
			dates[*asName] = true
		}
	}
	if root != nil {
		root.End()
		fmt.Fprint(os.Stderr, root.Render())
	}
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
		resp, err := c.ExplainPlan(ctx, *query)
		if err != nil {
			return err
		}
		if len(resp.PlanDAG) == 0 {
			// Pre-DAG server: fall back to the legacy flat text.
			fmt.Print(resp.Plan)
			return nil
		}
		nodes := make([]holistic.PlanNode, len(resp.PlanDAG))
		for i, n := range resp.PlanDAG {
			nodes[i] = holistic.PlanNode{ID: n.ID, Kind: n.Kind, Label: n.Label, Inputs: n.Inputs, SharedBy: n.SharedBy}
		}
		fmt.Print(holistic.RenderPlan(nodes))
		fmt.Printf("operators=%d sorts_shared=%d trees_shared=%d\n",
			resp.Operators, resp.SortsShared, resp.TreesShared)
		return nil
	}
	resp, err := c.Query(ctx, api.QueryRequest{SQL: *query, TimeoutMillis: *timeoutMS, IncludeTrace: *trace})
	if err != nil {
		return err
	}
	if resp.Trace != "" {
		fmt.Fprint(os.Stderr, resp.Trace)
	}
	var out io.Writer = os.Stdout
	if *output != "-" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	cw := csv.NewWriter(out)
	if err := cw.Write(resp.Columns); err != nil {
		return err
	}
	for _, row := range resp.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// runFlags evaluates the single function described by the flags and returns
// the input columns plus the result column, and the column whose values the
// function returns unchanged (Func.ValueColumn; empty when it computes new
// ones).
func runFlags(table *holistic.Table, opts []holistic.Option) (*holistic.Table, string, error) {
	w := holistic.Over()
	if *partition != "" {
		w.PartitionBy(strings.Split(*partition, ",")...)
	}
	if *orderBy != "" {
		w.OrderBy(parseSortKey(*orderBy))
	}
	fr, err := parseFrame()
	if err != nil {
		return nil, "", err
	}
	w.Frame(fr)

	fn, err := buildFunc()
	if err != nil {
		return nil, "", err
	}
	fn = fn.As(*asName)

	res, err := holistic.RunWith(table, w, []*holistic.Func{fn}, opts...)
	if err != nil {
		return nil, "", err
	}
	cols := append(append([]*holistic.Column{}, table.Columns()...), res.Column(*asName))
	out, err := holistic.NewTable(cols...)
	return out, fn.ValueColumn(), err
}

func parseSortKey(s string) holistic.SortKey {
	if strings.HasPrefix(s, "-") {
		return holistic.Desc(s[1:])
	}
	return holistic.Asc(s)
}

func parseBound(s string, preceding bool) (holistic.Bound, error) {
	switch s {
	case "unbounded":
		if preceding {
			return holistic.UnboundedPreceding(), nil
		}
		return holistic.UnboundedFollowing(), nil
	case "current":
		return holistic.CurrentRow(), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return holistic.Bound{}, fmt.Errorf("bad frame offset %q", s)
	}
	if preceding {
		return holistic.Preceding(n), nil
	}
	return holistic.Following(n), nil
}

func parseFrame() (holistic.Frame, error) {
	start, err := parseBound(*preceding, true)
	if err != nil {
		return holistic.Frame{}, err
	}
	end, err := parseBound(*following, false)
	if err != nil {
		return holistic.Frame{}, err
	}
	var fr holistic.Frame
	switch *mode {
	case "rows":
		fr = holistic.Rows(start, end)
	case "range":
		fr = holistic.Range(start, end)
	case "groups":
		fr = holistic.Groups(start, end)
	default:
		return fr, fmt.Errorf("bad frame mode %q", *mode)
	}
	switch *exclude {
	case "":
	case "current":
		fr = fr.ExcludeCurrentRow()
	case "group":
		fr = fr.ExcludeGroup()
	case "ties":
		fr = fr.ExcludeTies()
	default:
		return fr, fmt.Errorf("bad exclusion %q", *exclude)
	}
	return fr, nil
}

func buildFunc() (*holistic.Func, error) {
	needsValue := func() (string, holistic.SortKey, error) {
		if *value == "" {
			return "", holistic.SortKey{}, fmt.Errorf("-func %s requires -value", *funcName)
		}
		return strings.TrimPrefix(*value, "-"), parseSortKey(*value), nil
	}
	switch *funcName {
	case "count_star":
		return holistic.CountStar(), nil
	case "count", "sum", "avg", "min", "max", "count_distinct", "sum_distinct", "avg_distinct":
		col, _, err := needsValue()
		if err != nil {
			return nil, err
		}
		switch *funcName {
		case "count":
			return holistic.Count(col), nil
		case "sum":
			return holistic.Sum(col), nil
		case "avg":
			return holistic.Avg(col), nil
		case "min":
			return holistic.Min(col), nil
		case "max":
			return holistic.Max(col), nil
		case "count_distinct":
			return holistic.CountDistinct(col), nil
		case "sum_distinct":
			return holistic.SumDistinct(col), nil
		default:
			return holistic.AvgDistinct(col), nil
		}
	case "rank", "dense_rank", "percent_rank", "row_number", "cume_dist", "ntile",
		"percentile_disc", "percentile_cont", "median", "first_value", "last_value", "nth_value", "lead", "lag":
		col, key, err := needsValue()
		if err != nil {
			return nil, err
		}
		switch *funcName {
		case "rank":
			return holistic.Rank(key), nil
		case "dense_rank":
			return holistic.DenseRank(key), nil
		case "percent_rank":
			return holistic.PercentRank(key), nil
		case "row_number":
			return holistic.RowNumber(key), nil
		case "cume_dist":
			return holistic.CumeDist(key), nil
		case "ntile":
			return holistic.Ntile(*nArg, key), nil
		case "percentile_disc":
			return holistic.PercentileDisc(*fraction, key), nil
		case "percentile_cont":
			return holistic.PercentileCont(*fraction, key), nil
		case "median":
			return holistic.Median(key), nil
		case "first_value":
			return holistic.FirstValue(col, key), nil
		case "last_value":
			return holistic.LastValue(col, key), nil
		case "nth_value":
			return holistic.NthValue(col, *nArg, key), nil
		case "lead":
			return holistic.Lead(col, *nArg, key), nil
		default:
			return holistic.Lag(col, *nArg, key), nil
		}
	}
	return nil, fmt.Errorf("unknown function %q", *funcName)
}
