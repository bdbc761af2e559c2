package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/arena"
	"holistic/internal/server/api"
)

// waitFor polls cond until it holds or the budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkAfterAbort asserts what must hold once an aborted response's handler
// has returned: one abort counted and logged, the single evaluation slot
// free, the encode workers gone (no more goroutines than before the
// request), pooled scratch — the chunk buffers they were rendering into
// included — all returned, and the server still answering.
func checkAfterAbort(t *testing.T, s *Server, c *api.Client, logged func() string, poolsBefore []arena.PoolStat, goroutinesBefore int) {
	t.Helper()
	waitFor(t, "the abort to be counted", func() bool { return s.obs.responseAborts.Value() == 1 })
	waitFor(t, "the request log line", func() bool { return strings.Contains(logged(), "aborted=true") })
	if n := len(s.limiter); n != 0 {
		t.Fatalf("%d evaluation slots still held after the abort", n)
	}
	waitFor(t, "the request's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutinesBefore })
	deltas := poolDeltas(poolsBefore, arena.Snapshot())
	for name, d := range deltas {
		if d.Gets != d.Puts || d.BytesInFlight != 0 {
			t.Errorf("pool %s leaked across the abort: gets=%d puts=%d bytes_in_flight=%+d", name, d.Gets, d.Puts, d.BytesInFlight)
		}
	}
	if deltas["response"].Gets == 0 {
		t.Error("the aborted response drew no chunk buffer from the response pool")
	}
	resp, err := c.Query(context.Background(), api.QueryRequest{SQL: `select rank(order by v) over (order by v) as r from small`})
	if err != nil || len(resp.Rows) != 5 {
		t.Fatalf("query after the abort: %v (%v)", err, resp)
	}
	if got := s.obs.responseAborts.Value(); got != 1 {
		t.Fatalf("response_aborts_total = %v after a clean follow-up, want 1", got)
	}
}

func newAbortTestServer(t *testing.T, rows int) (*Server, *api.Client, func() string) {
	t.Helper()
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	s, c := newTestServer(t, Config{MaxConcurrent: 1, Logger: logger})
	mustUpload(t, c, "big", bigCSV(rows))
	mustUpload(t, c, "small", smallCSV)
	return s, c, func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

const streamSQL = `select g, v, rank(order by v) over (order by v) as r from big`

// TestClientDisconnectMidStream closes the connection after the first piece
// of a 120k-row response: the handler must notice at its next flush, stop
// encoding, and leave the server as it found it.
func TestClientDisconnectMidStream(t *testing.T) {
	s, c, logged := newAbortTestServer(t, 120_000)
	poolsBefore, goroutinesBefore := arena.Snapshot(), runtime.NumGoroutine()

	conn, err := net.Dial("tcp", strings.TrimPrefix(c.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"sql":%q}`, streamSQL)
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		api.PathQuery, len(body), body)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("status line %q: %v", status, err)
	}
	if _, err := io.ReadFull(br, make([]byte, 4096)); err != nil {
		t.Fatalf("reading the first piece of the body: %v", err)
	}
	hungUp := time.Now()
	conn.Close()

	checkAfterAbort(t, s, c, logged, poolsBefore, goroutinesBefore)
	if took := time.Since(hungUp); took > 10*time.Second {
		t.Fatalf("handler took %v to notice the disconnect", took)
	}
}

// stallingWriter is a ResponseWriter whose second body write — the first
// rows, with the encode workers rendering ahead of it — blocks until release
// is closed: a reader slow enough for the request's deadline to pass while
// the response is on its way.
type stallingWriter struct {
	header  http.Header
	status  int
	body    bytes.Buffer
	release <-chan struct{}
	writes  int
	stalled bool
}

func (w *stallingWriter) Header() http.Header  { return w.header }
func (w *stallingWriter) WriteHeader(code int) { w.status = code }
func (w *stallingWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		w.stalled = true
		<-w.release
	}
	return w.body.Write(b)
}

// TestDeadlineMidStream lets the request's deadline expire between two
// flushes of a response: the encoder must stop there, with the same
// bookkeeping as a disconnect.
func TestDeadlineMidStream(t *testing.T) {
	s, c, logged := newAbortTestServer(t, 20_000)
	poolsBefore, goroutinesBefore := arena.Snapshot(), runtime.NumGoroutine()

	// The deadline is a timer cancelling the request, and the stalled write is
	// released only once that cancel has returned: a context's Done channel
	// closes before its children — the handler's context is one — are
	// cancelled, so a write released on ctx.Done() could find the handler's
	// context still live and let more of the body through.
	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan struct{})
	deadline := time.AfterFunc(750*time.Millisecond, func() {
		cancel()
		close(expired)
	})
	defer deadline.Stop()
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, api.PathQuery,
		strings.NewReader(fmt.Sprintf(`{"sql":%q}`, streamSQL))).WithContext(ctx)
	w := &stallingWriter{header: http.Header{}, release: expired}
	s.Handler().ServeHTTP(w, req)

	if w.status != http.StatusOK || !w.stalled {
		t.Fatalf("status=%d stalled=%v: the deadline hit before the response started; body %q", w.status, w.stalled, w.body.String())
	}
	if got := w.body.Len(); got == 0 || got > 2*flushBytes {
		t.Fatalf("%d body bytes written, want the opening and the one flush that was in flight at the deadline", got)
	}
	if bytes.HasSuffix(w.body.Bytes(), []byte("}\n")) {
		t.Fatal("the response completed although its deadline passed mid-stream")
	}
	checkAfterAbort(t, s, c, logged, poolsBefore, goroutinesBefore)
}
