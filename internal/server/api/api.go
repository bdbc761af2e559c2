// Package api defines the JSON wire types of the windowd HTTP daemon and a
// small client speaking them. The server handlers, the windowcli -server
// mode and the server tests all share these definitions, so requests are
// encoded exactly one way.
//
// The HTTP surface is versioned under /v1: /v1/query, /v1/explain,
// /v1/datasets, /v1/healthz and /v1/metrics. Every non-2xx response carries
// the ErrorResponse envelope with a stable machine code.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// API paths (version 1).
const (
	PathQuery    = "/v1/query"
	PathExplain  = "/v1/explain"
	PathDatasets = "/v1/datasets"
	PathHealthz  = "/v1/healthz"
	PathMetrics  = "/v1/metrics"
)

// ErrorCode is a stable machine-readable error classification, carried in
// every non-2xx response. Codes are coarser than messages: clients branch
// on the code and show the message.
type ErrorCode string

const (
	// CodeInvalidArgument: the request was malformed or the SQL failed to
	// parse/validate (HTTP 400).
	CodeInvalidArgument ErrorCode = "invalid_argument"
	// CodeNotFound: unknown dataset or unknown route (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeMethodNotAllowed: known route, wrong HTTP method (HTTP 405).
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeConflict: the request races a running operation, e.g. starting
	// an ingest for a dataset that is already ingesting (HTTP 409).
	CodeConflict ErrorCode = "conflict"
	// CodePayloadTooLarge: the request body exceeded the server's upload
	// limit (HTTP 413).
	CodePayloadTooLarge ErrorCode = "payload_too_large"
	// CodeResourceExhausted: no evaluation slot before the deadline
	// (HTTP 503).
	CodeResourceExhausted ErrorCode = "resource_exhausted"
	// CodeDeadlineExceeded: the query ran past its timeout (HTTP 504).
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeCanceled: the client went away mid-evaluation (HTTP 504; mostly
	// seen in logs, the client rarely reads it).
	CodeCanceled ErrorCode = "canceled"
	// CodeInternal: unclassified server-side failure (HTTP 500).
	CodeInternal ErrorCode = "internal"
)

// QueryRequest asks the server to evaluate one SQL statement (the paper
// dialect of holistic.RunSQL) against the registered datasets. The FROM
// clause names the dataset.
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMillis bounds the evaluation; 0 means the server default. The
	// server clamps values above its configured maximum.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
	// IncludeTrace asks for the query's rendered span tree in
	// QueryResponse.Trace (the remote counterpart of windowcli -trace).
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// QueryResponse carries a result table with every cell rendered as text
// (NULLs as empty strings with Nulls marking them, dates as ISO dates).
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Nulls[i][j] reports whether cell (i, j) is SQL NULL — the empty
	// string alone cannot distinguish NULL from an empty string value.
	Nulls [][]bool   `json:"nulls,omitempty"`
	Stats QueryStats `json:"stats"`
	// Trace is the indented span tree of the evaluation, present when the
	// request set IncludeTrace.
	Trace string `json:"trace,omitempty"`
}

// QueryStats describes one evaluation: wall time, the tree cache's
// cumulative counters after the query, and the statement's shared-plan
// shape. A follow-up identical query leaves CacheMisses unchanged and
// raises CacheHits.
type QueryStats struct {
	// ElapsedMillis times the evaluation only: not the wait for a slot, not
	// the snapshot's merged table (the trace's "snapshot:" spans and
	// windowd_snapshot_materialize_seconds), not the response.
	ElapsedMillis float64 `json:"elapsed_millis"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// Operators is the statement plan's DAG node count; SortsShared and
	// TreesShared count the sorts and tree builds the shared-plan optimizer
	// eliminated. Deterministic properties of the plan shape, not runtime
	// cache observations.
	Operators   int `json:"operators,omitempty"`
	SortsShared int `json:"sorts_shared,omitempty"`
	TreesShared int `json:"trees_shared,omitempty"`
}

// ExplainRequest asks for the evaluation plan of a statement.
type ExplainRequest struct {
	SQL string `json:"sql"`
}

// PlanNode is one operator of the structured explain DAG. Nodes arrive in a
// valid execution order: inputs always precede consumers.
type PlanNode struct {
	// ID identifies the node within the plan (e.g. "sort0", "tree0_1").
	ID string `json:"id"`
	// Kind is the operator class: "sort", "partitions", "preprocess",
	// "tree" or "probe".
	Kind string `json:"kind"`
	// Label describes the operator.
	Label string `json:"label"`
	// Inputs lists the IDs of the nodes this one consumes.
	Inputs []string `json:"inputs,omitempty"`
	// SharedBy lists the output columns this node serves; more than one
	// entry means the node is computed once and reused.
	SharedBy []string `json:"shared_by,omitempty"`
}

// ExplainResponse carries the shared-plan optimizer's DAG: PlanDAG its
// nodes, Plan their indented text rendering.
type ExplainResponse struct {
	Plan    string     `json:"plan"`
	PlanDAG []PlanNode `json:"plan_dag,omitempty"`
	// Operators, SortsShared and TreesShared summarize the DAG the way
	// QueryStats does for an executed query.
	Operators   int `json:"operators,omitempty"`
	SortsShared int `json:"sorts_shared,omitempty"`
	TreesShared int `json:"trees_shared,omitempty"`
}

// Dataset source kinds for RegisterRequest.Source.
const (
	// SourceCSV (or an empty Source) loads a CSV file from Path.
	SourceCSV = "csv"
	// SourceDir registers an existing segment dataset directory (Dir).
	SourceDir = "dir"
	// SourceIngest ingests the CSV at Path into the segment directory Dir
	// asynchronously; poll GET /v1/datasets/{name}/ingest for progress.
	SourceIngest = "ingest"
)

// Ingest states reported by IngestStatus.State.
const (
	IngestRunning = "running"
	IngestDone    = "done"
	IngestFailed  = "failed"
)

// RegisterRequest is the JSON form of dataset registration: a CSV file on
// the server's filesystem (Source csv/empty), an existing out-of-core
// segment directory (Source dir), or an asynchronous CSV→segments ingest
// (Source ingest).
type RegisterRequest struct {
	// Path is the server-side CSV file (sources csv and ingest).
	Path string `json:"path,omitempty"`
	// Source selects the registration kind; empty means csv.
	Source string `json:"source,omitempty"`
	// Dir is the segment dataset directory (sources dir and ingest).
	Dir string `json:"dir,omitempty"`
	// RowsPerSegment overrides the ingest interval size (source ingest;
	// <= 0 selects the server default).
	RowsPerSegment int `json:"rows_per_segment,omitempty"`
	// BlockRows overrides the segment block granularity (source ingest).
	BlockRows int `json:"block_rows,omitempty"`
	// KeyColumn names a unique, non-NULL INT64 or STRING column that
	// upserts and deletes address rows by (POST .../mutations). Datasets
	// registered without one are append-only under mutation.
	KeyColumn string `json:"key_column,omitempty"`
}

// Mutation op names for MutationSpec.Op.
const (
	OpAppend = "append"
	OpUpsert = "upsert"
	OpDelete = "delete"
)

// MutationSpec is one row mutation. Row maps column names to rendered cell
// values (same text forms as CSV cells: dates as ISO dates, bools as
// true/false); columns absent from the map are NULL. A delete only needs
// the key column.
type MutationSpec struct {
	Op  string            `json:"op"`
	Row map[string]string `json:"row"`
}

// MutateRequest is the POST /v1/datasets/{name}/mutations body: one batch
// of mutations applied atomically, advancing the dataset's epoch by one.
type MutateRequest struct {
	// ExpectedEpoch, when set, makes the batch conditional: it only applies
	// if it matches the dataset's current epoch, otherwise the server
	// answers 409 conflict with the current epoch in the message
	// (optimistic concurrency for multi-writer streams). Omitted means
	// apply unconditionally.
	ExpectedEpoch *int64         `json:"expected_epoch,omitempty"`
	Mutations     []MutationSpec `json:"mutations"`
}

// MutateResponse reports the batch's outcome: the new epoch, the mutation
// count applied, and the dataset's live size after the batch.
type MutateResponse struct {
	Epoch   int64 `json:"epoch"`
	Applied int   `json:"applied"`
	// Rows is the merged table's current row count.
	Rows int `json:"rows"`
	// DeltaRows sizes the mutation overlay pending compaction.
	DeltaRows int `json:"delta_rows"`
}

// IngestStatus is the GET /v1/datasets/{name}/ingest response and the 202
// body of an accepted source=ingest registration.
type IngestStatus struct {
	// State is running, done or failed.
	State string `json:"state"`
	// Error carries the failure message when State is failed.
	Error string `json:"error,omitempty"`
	// Planned reports whether the planning pass finished; totals are zero
	// until it has.
	Planned        bool  `json:"planned"`
	TotalIntervals int   `json:"total_intervals"`
	DoneIntervals  int   `json:"done_intervals"`
	TotalRows      int64 `json:"total_rows"`
	DoneRows       int64 `json:"done_rows"`
	// Resumed counts intervals inherited from a previous run's state.
	Resumed int `json:"resumed"`
	// Dataset is the registered dataset once State is done.
	Dataset *DatasetInfo `json:"dataset,omitempty"`
}

// DatasetInfo describes one registered dataset. Version starts at 1 and
// increments on every reload under the same name.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Version int64    `json:"version"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
	// Segments is the segment-file count for datasets materialized from a
	// segment directory; 0 for plain CSV registrations.
	Segments int `json:"segments,omitempty"`
	// Epoch counts applied mutation batches since registration.
	Epoch int64 `json:"epoch,omitempty"`
	// KeyColumn is the mutation key column, when one was configured.
	KeyColumn string `json:"key_column,omitempty"`
}

// DatasetList is the GET /v1/datasets response.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// ErrorDetail is the error object inside the envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	Detail  string    `json:"detail,omitempty"`
}

// ErrorResponse is the envelope of every non-2xx response:
// {"error":{"code":...,"message":...,"detail":...}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Error is the client-side form of a server error: the envelope plus the
// HTTP status. Clients branch on Code.
type Error struct {
	Status  int
	Code    ErrorCode
	Message string
	Detail  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("windowd: %s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Client speaks the windowd /v1 protocol against a base URL like
// "http://127.0.0.1:8080".
type Client struct {
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do sends body (JSON-encoded unless raw) and decodes the response into out.
// Non-2xx responses come back as *Error.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error.Code != "" {
			return &Error{
				Status:  resp.StatusCode,
				Code:    e.Error.Code,
				Message: e.Error.Message,
				Detail:  e.Error.Detail,
			}
		}
		return &Error{
			Status:  resp.StatusCode,
			Code:    CodeInternal,
			Message: string(bytes.TrimSpace(data)),
		}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	return c.do(ctx, method, path, "application/json", body, out)
}

// Query evaluates a SQL statement.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	var resp QueryResponse
	if err := c.doJSON(ctx, http.MethodPost, PathQuery, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Explain fetches a statement's plan: the structured DAG with shared-node
// annotations plus its text rendering.
func (c *Client) Explain(ctx context.Context, sql string) (*ExplainResponse, error) {
	var resp ExplainResponse
	if err := c.doJSON(ctx, http.MethodPost, PathExplain, ExplainRequest{SQL: sql}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// UploadCSV registers (or reloads) a dataset from CSV content.
func (c *Client) UploadCSV(ctx context.Context, name string, csvData []byte) (*DatasetInfo, error) {
	var info DatasetInfo
	if err := c.do(ctx, http.MethodPost, PathDatasets+"/"+name, "text/csv", csvData, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// UploadCSVKeyed registers (or reloads) a dataset from CSV content with a
// mutation key column, enabling upserts and deletes against it.
func (c *Client) UploadCSVKeyed(ctx context.Context, name, keyColumn string, csvData []byte) (*DatasetInfo, error) {
	var info DatasetInfo
	path := PathDatasets + "/" + name + "?key=" + url.QueryEscape(keyColumn)
	if err := c.do(ctx, http.MethodPost, path, "text/csv", csvData, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Mutate applies one batch of mutations to a dataset, advancing its epoch.
// A stale MutateRequest.ExpectedEpoch comes back as *Error with
// CodeConflict (HTTP 409).
func (c *Client) Mutate(ctx context.Context, name string, req MutateRequest) (*MutateResponse, error) {
	var resp MutateResponse
	if err := c.doJSON(ctx, http.MethodPost, PathDatasets+"/"+name+"/mutations", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RegisterPath registers (or reloads) a dataset from a CSV file on the
// server's filesystem.
func (c *Client) RegisterPath(ctx context.Context, name, path string) (*DatasetInfo, error) {
	var info DatasetInfo
	if err := c.doJSON(ctx, http.MethodPost, PathDatasets+"/"+name, RegisterRequest{Path: path}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// RegisterDir registers (or reloads) a dataset from a segment dataset
// directory on the server's filesystem.
func (c *Client) RegisterDir(ctx context.Context, name, dir string) (*DatasetInfo, error) {
	var info DatasetInfo
	if err := c.doJSON(ctx, http.MethodPost, PathDatasets+"/"+name, RegisterRequest{Source: SourceDir, Dir: dir}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// StartIngest begins an asynchronous ingest of the server-side CSV at path
// into the segment directory dir, registering the dataset under name on
// completion. The returned status is the initial snapshot; poll
// IngestStatus until State leaves IngestRunning.
func (c *Client) StartIngest(ctx context.Context, name string, req RegisterRequest) (*IngestStatus, error) {
	req.Source = SourceIngest
	var st IngestStatus
	if err := c.doJSON(ctx, http.MethodPost, PathDatasets+"/"+name, req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// IngestStatus fetches the progress of dataset name's ingest.
func (c *Client) IngestStatus(ctx context.Context, name string) (*IngestStatus, error) {
	var st IngestStatus
	if err := c.doJSON(ctx, http.MethodGet, PathDatasets+"/"+name+"/ingest", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Datasets lists the registered datasets.
func (c *Client) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	var list DatasetList
	if err := c.doJSON(ctx, http.MethodGet, PathDatasets, nil, &list); err != nil {
		return nil, err
	}
	return list.Datasets, nil
}

// Metrics fetches the Prometheus text exposition of GET /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+PathMetrics, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("windowd: %s: HTTP %d", PathMetrics, resp.StatusCode)
	}
	return string(data), nil
}
