package server

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
	"unicode/utf8"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/server/api"
)

// flushBytes is the most one write hands to the connection: large enough that
// a response is a few syscalls per hundred thousand cells, small enough that
// the request's deadline is looked at often and a stalled reader holds up
// little.
const flushBytes = 64 << 10

// chunkRows is how many rows one encode task renders. BenchmarkEncodeResponse
// at -cpu 2 (int+float, 200k rows, four alternating rounds) reads 13.2 ms at
// 256 rows, 11.6 ms at 1,024 and 11.8 ms at 4,096: the hand-over between the
// workers and the writer has to be small beside the rendering, and past a
// thousand rows it is. 1,024 is the smallest such size, which keeps a chunk
// of the benchmark workloads' rows (some 40 KiB) under one flush and the
// buffers in flight small.
const chunkRows = 1024

// chunkBufBytes sizes the pooled buffer a chunk is rendered into: 1,024 rows
// of 250 bytes fit. A response of wider rows outgrows it once and asks the
// pool for what it needed from then on (slot.sizeAfter).
const chunkBufBytes = 256 << 10

// responseBufs pools the chunk buffers of every response in flight: at most
// two per encode worker and request.
var responseBufs = arena.NewPool[byte]("response")

// queryResult is one evaluated statement on its way to the wire: the typed
// result columns and everything else the body carries. Nothing in it is
// rendered yet; encodeResponse turns it into api.QueryResponse's JSON.
type queryResult struct {
	sql   string
	table *core.Table
	// dates marks the output columns rendered as ISO dates
	// (sqlparse.DateOutputs).
	dates map[string]bool
	stats api.QueryStats
	// trace is the rendered span tree when the request asked for it.
	trace string
	// root is the request's span tree: the snapshot it pinned and the
	// evaluation. snapshot and elapsed are those two parts' wall times, kept
	// for the slow-query log, which is written after the response.
	root     *obs.Span
	snapshot time.Duration
	elapsed  time.Duration
}

// cellAppender appends one column's cell of row i as a JSON string.
type cellAppender func(dst []byte, i int) []byte

// newCellAppender resolves once per column what every one of its cells
// needs: only STRING cells can hold bytes JSON escapes; every other kind's
// text (csvio.AppendCell) goes between the quotes as it is.
func newCellAppender(col *core.Column, date bool) cellAppender {
	if col.Kind() == core.String {
		return func(dst []byte, i int) []byte {
			if col.IsNull(i) {
				return append(dst, `""`...)
			}
			return appendJSONString(dst, col.StringAt(i))
		}
	}
	return func(dst []byte, i int) []byte {
		dst = append(dst, '"')
		dst = csvio.AppendCell(dst, col, i, date)
		return append(dst, '"')
	}
}

// appendNullsRow appends row i of the "nulls" mask. Only the columns marked
// nullable are consulted.
func appendNullsRow(dst []byte, cols []*core.Column, nullable []bool, i int) []byte {
	dst = append(dst, '[')
	for c, col := range cols {
		if c > 0 {
			dst = append(dst, ',')
		}
		if nullable[c] && col.IsNull(i) {
			dst = append(dst, "true"...)
		} else {
			dst = append(dst, "false"...)
		}
	}
	return append(dst, ']')
}

// rowEncoder renders a result's rows in chunks of chunkRows: first the
// chunks of "rows", then — when a column holds a NULL — the chunks of
// "nulls". A chunk is one task, numbered in body order.
type rowEncoder struct {
	cols        []*core.Column
	cells       []cellAppender
	nullable    []bool
	anyNullable bool
	rows        int
	chunks      int // chunks per array: rows / chunkRows, rounded up
}

func newRowEncoder(res *queryResult) *rowEncoder {
	e := &rowEncoder{cols: res.table.Columns(), rows: res.table.Rows()}
	e.chunks = (e.rows + chunkRows - 1) / chunkRows
	e.cells = make([]cellAppender, len(e.cols))
	e.nullable = make([]bool, len(e.cols))
	for c, col := range e.cols {
		e.cells[c] = newCellAppender(col, res.dates[col.Name()])
		e.nullable[c] = col.HasNulls()
		e.anyNullable = e.anyNullable || e.nullable[c]
	}
	return e
}

// tasks is how many chunks the body's rows make.
func (e *rowEncoder) tasks() int {
	if e.anyNullable {
		return 2 * e.chunks
	}
	return e.chunks
}

// nullsOpen closes "rows" and opens "nulls".
const nullsOpen = `],"nulls":[`

// appendChunk appends one task's rows — the only row renderer, whoever runs
// it: rows lo..hi of "rows", or of "nulls" for the second half of the tasks
// (its first chunk opens the array). Every row but the array's first brings
// its own leading comma, so chunks join as they are.
func (e *rowEncoder) appendChunk(dst []byte, task int) []byte {
	lo := task % e.chunks * chunkRows
	hi := min(lo+chunkRows, e.rows)
	if task < e.chunks {
		for i := lo; i < hi; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for c, cell := range e.cells {
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = cell(dst, i)
			}
			dst = append(dst, ']')
		}
		return dst
	}
	if lo == 0 {
		dst = append(dst, nullsOpen...)
	}
	for i := lo; i < hi; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNullsRow(dst, e.cols, e.nullable, i)
	}
	return dst
}

// slot is one rendered task on its way to the writer, and the pooled buffer
// it was rendered into. The buffer stays with the slot for the next task that
// comes through it, and goes back to responseBufs when the response is over.
type slot struct {
	pooled []byte
	// data is the task's bytes: in pooled, unless the rows outgrew it.
	data  []byte
	ready bool
}

// render renders one task into the slot: into its buffer if that holds size
// bytes, into one from the pool otherwise.
func (e *rowEncoder) render(s *slot, task, size int) {
	if cap(s.pooled) < size {
		responseBufs.Put(s.pooled)
		s.pooled = responseBufs.Get(size)
	}
	s.data = e.appendChunk(s.pooled[:0], task)
}

// sizeAfter is the buffer size to ask for after the slot's task, given the
// size asked for so far: the same, unless the task outgrew its buffer — then
// its length and a quarter, so that its neighbours fit without growing.
func (s *slot) sizeAfter(size int) int {
	if len(s.data) <= cap(s.pooled) {
		return size
	}
	return max(size, len(s.data)+len(s.data)/4)
}

// chunkPipe hands the encode workers their tasks and the writer the rendered
// slots, in task order. Task t goes through ring[t%len(ring)], and a worker
// only claims a task fewer than len(ring) ahead of the writer — so the slot
// is free when it is claimed, and len(ring) bounds the buffers in use.
type chunkPipe struct {
	mu      sync.Mutex
	changed sync.Cond // a task was rendered or written, or the pipe stopped
	ring    []slot
	tasks   int
	claimed int // tasks handed to workers
	written int // tasks the writer is done with
	size    int // buffer size the next render asks for
	stopped bool
}

// work renders tasks until none is left or the pipe stops.
func (p *chunkPipe) work(e *rowEncoder) {
	for {
		p.mu.Lock()
		for !p.stopped && p.claimed < p.tasks && p.claimed-p.written >= len(p.ring) {
			p.changed.Wait()
		}
		if p.stopped || p.claimed == p.tasks {
			p.mu.Unlock()
			return
		}
		task, size := p.claimed, p.size
		p.claimed++
		p.mu.Unlock()

		s := &p.ring[task%len(p.ring)]
		e.render(s, task, size)

		p.mu.Lock()
		s.ready = true
		p.size = s.sizeAfter(p.size)
		p.mu.Unlock()
		p.changed.Broadcast()
	}
}

// next waits for the next task in order and returns its slot.
func (p *chunkPipe) next() *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.ring[p.written%len(p.ring)]
	for !s.ready {
		p.changed.Wait()
	}
	return s
}

// release frees the slot next returned, once its bytes are written.
func (p *chunkPipe) release(s *slot) {
	p.mu.Lock()
	s.ready = false
	p.written++
	p.mu.Unlock()
	p.changed.Broadcast()
}

// stop makes every worker return after the task it is rendering.
func (p *chunkPipe) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.changed.Broadcast()
}

// stream renders every task and writes them to out in order. With one worker
// it is a loop around render; with more, that many goroutines render ahead
// of this one, which only writes, through a ring of two slots per worker.
// The first failed write ends it: the workers stop, and every one of them
// has returned and every buffer is back in the pool when stream returns.
func (e *rowEncoder) stream(out *bodyWriter, workers int) error {
	tasks := e.tasks()
	if workers = min(workers, tasks); workers <= 1 {
		var s slot
		defer func() { responseBufs.Put(s.pooled) }()
		size := chunkBufBytes
		for task := 0; task < tasks; task++ {
			e.render(&s, task, size)
			if err := out.write(s.data); err != nil {
				return err
			}
			size = s.sizeAfter(size)
		}
		return nil
	}

	p := &chunkPipe{ring: make([]slot, 2*workers), tasks: tasks, size: chunkBufBytes}
	p.changed.L = &p.mu
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		p.work(e)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	var err error
	for task := 0; task < tasks && err == nil; task++ {
		s := p.next()
		err = out.write(s.data)
		p.release(s)
	}
	p.stop()
	wg.Wait()
	for i := range p.ring {
		responseBufs.Put(p.ring[i].pooled)
	}
	return err
}

// bodyWriter hands encoded bytes to the connection and counts them.
type bodyWriter struct {
	ctx context.Context
	w   io.Writer
	n   int64
}

// write writes b out, at most flushBytes at a time. It fails once the request
// is over — its deadline passed or the client went away — or a write fails;
// the encoder stops at the first failure, so the check costs one look per
// write, not one per row.
func (b *bodyWriter) write(p []byte) error {
	for len(p) > 0 {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		n, err := b.w.Write(p[:min(len(p), flushBytes)])
		b.n += int64(n)
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// writeNoNulls writes the "nulls" mask of a result without a NULL: every row
// is the same bytes, so one block of rows is built once and written as often
// as it takes.
func (e *rowEncoder) writeNoNulls(out *bodyWriter) error {
	row := appendNullsRow([]byte{','}, e.cols, e.nullable, 0)
	blockRows := min(e.rows, max(flushBytes/len(row), 1))
	block := responseBufs.Get(blockRows * len(row))
	defer responseBufs.Put(block)
	for i := 0; i < blockRows; i++ {
		copy(block[i*len(row):], row)
	}
	if err := out.write([]byte(nullsOpen)); err != nil {
		return err
	}
	for written := 0; written < e.rows; written += blockRows {
		b := block[:min(e.rows-written, blockRows)*len(row)]
		if written == 0 {
			b = b[1:] // the array's first row has no comma before it
		}
		if err := out.write(b); err != nil {
			return err
		}
	}
	return nil
}

// encodeResponse streams res to w as the JSON encoding/json produces for
// api.QueryResponse — same field order, "nulls" omitted for a zero-row
// result, HTML-safe string escaping, trailing newline — without ever holding
// the rendered cells or a second copy of the body: the rows are rendered a
// chunk at a time, on as many workers as the request may use, and written in
// order as the chunks complete. It returns the bytes written and the error
// that cut the response short, if any.
func encodeResponse(ctx context.Context, w io.Writer, res *queryResult) (int64, error) {
	out := &bodyWriter{ctx: ctx, w: w}
	e := newRowEncoder(res)

	buf := append(make([]byte, 0, 1024), `{"columns":[`...)
	for c, col := range e.cols {
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, col.Name())
	}
	buf = append(buf, `],"rows":[`...)
	if err := out.write(buf); err != nil {
		return out.n, err
	}
	if err := e.stream(out, parallel.ContextWorkers(ctx)); err != nil {
		return out.n, err
	}
	if e.rows > 0 && !e.anyNullable {
		if err := e.writeNoNulls(out); err != nil {
			return out.n, err
		}
	}

	buf = append(buf[:0], `],"stats":`...)
	stats, err := json.Marshal(res.stats)
	if err != nil {
		return out.n, err
	}
	buf = append(buf, stats...)
	if res.trace != "" {
		buf = append(buf, `,"trace":`...)
		buf = appendJSONString(buf, res.trace)
	}
	buf = append(buf, "}\n"...)
	return out.n, out.write(buf)
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string as they
// are under its default HTML-safe escaping: everything but control bytes,
// the quote, the backslash and <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := range safe {
		safe[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json's default encoder writes: the short escapes for quote,
// backslash, \b, \f, \n, \r and \t, \u00XX for the other control bytes and
// for <, > and &, U+2028 and U+2029 escaped, and the escaped U+FFFD in place
// of each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
