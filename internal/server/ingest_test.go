package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"holistic/internal/server/api"
)

// ingestCSV renders n data rows of a g/d/v table with some NULLs.
func ingestCSV(n int) string {
	rng := rand.New(rand.NewSource(int64(n)))
	var b strings.Builder
	b.WriteString("g,d,v\n")
	for i := 0; i < n; i++ {
		v := ""
		if rng.Intn(10) != 0 {
			v = fmt.Sprintf("%d", rng.Intn(1000)-500)
		}
		fmt.Fprintf(&b, "%d,2024-%02d-%02d,%s\n", rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28), v)
	}
	return b.String()
}

func TestUploadLimit(t *testing.T) {
	_, c := newTestServer(t, Config{MaxUploadBytes: 256})
	ctx := context.Background()
	if _, err := c.UploadCSV(ctx, "small", []byte(smallCSV)); err != nil {
		t.Fatalf("under-limit upload rejected: %v", err)
	}
	_, err := c.UploadCSV(ctx, "big", []byte(ingestCSV(100)))
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("oversized upload: got %v, want *api.Error", err)
	}
	if ae.Status != http.StatusRequestEntityTooLarge || ae.Code != api.CodePayloadTooLarge {
		t.Fatalf("oversized upload: status=%d code=%q, want 413 %q", ae.Status, ae.Code, api.CodePayloadTooLarge)
	}
	// The limit covers JSON register bodies too.
	big := api.RegisterRequest{Path: strings.Repeat("x", 512)}
	if _, err := c.RegisterPath(ctx, "big", big.Path); err == nil {
		t.Fatal("oversized JSON register body accepted")
	}
}

// TestIngestAndSegmentedQuery drives the full server-side out-of-core path:
// async ingest of a CSV into >= 4 segments with progress polling, then a
// query over the segmented dataset compared row-for-row against the same
// CSV uploaded in-RAM on the same server.
func TestIngestAndSegmentedQuery(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.csv")
	csvData := ingestCSV(600)
	if err := os.WriteFile(src, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	mustUpload(t, c, "ram", csvData)

	dest := filepath.Join(dir, "data")
	st, err := c.StartIngest(ctx, "seg", api.RegisterRequest{Path: src, Dir: dest, RowsPerSegment: 150})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.IngestRunning && st.State != api.IngestDone {
		t.Fatalf("initial ingest state %q", st.State)
	}
	deadline := time.Now().Add(20 * time.Second)
	for st.State != api.IngestDone {
		if st.State == api.IngestFailed {
			t.Fatalf("ingest failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = c.IngestStatus(ctx, "seg"); err != nil {
			t.Fatal(err)
		}
	}
	if st.Dataset == nil || st.Dataset.Segments != 4 || st.Dataset.Rows != 600 {
		t.Fatalf("final ingest dataset %+v", st.Dataset)
	}
	if st.DoneIntervals != 4 || st.DoneRows != 600 {
		t.Fatalf("final ingest progress %+v", st)
	}

	const q = `select g, d, v,
		sum(v) over w as s,
		rank(order by v) over w as r,
		percentile_disc(0.5 order by v) over w as med
	from %s window w as (partition by g order by d, v rows between 20 preceding and 5 following)`
	want, err := c.Query(ctx, api.QueryRequest{SQL: fmt.Sprintf(q, "ram")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, api.QueryRequest{SQL: fmt.Sprintf(q, "seg")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Nulls, want.Nulls) {
		t.Fatal("segmented query result differs from the in-RAM dataset's")
	}

	// The segment directory also registers directly (e.g. after a restart).
	info, err := c.RegisterDir(ctx, "seg2", dest)
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments != 4 || info.Rows != 600 {
		t.Fatalf("RegisterDir info %+v", info)
	}

	status, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "segments=4") || !strings.Contains(status, "ingest: started=") {
		t.Fatalf("statusz lacks segment/ingest lines:\n%s", status)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `windowd_ingest_runs_total{state="completed"} 1`) {
		t.Fatalf("metrics lack ingest families:\n%s", metrics)
	}
}

func TestIngestStatusUnknown(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, err := c.IngestStatus(context.Background(), "nope")
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown ingest status: %v", err)
	}
}

func TestIngestRequestValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.StartIngest(ctx, "x", api.RegisterRequest{Path: "only-path.csv"}); err == nil {
		t.Fatal("ingest without dir accepted")
	}
	var ae *api.Error
	if _, err := c.StartIngest(ctx, "x", api.RegisterRequest{Dir: "only-dir"}); !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("ingest without path: %v", err)
	}
	if _, err := c.RegisterDir(ctx, "x", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing segment directory registered")
	}
}
