package server

import (
	"context"
	"encoding/json"
	"io"
	"time"
	"unicode/utf8"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/obs"
	"holistic/internal/server/api"
)

// flushBytes is how much encoded body accumulates before it is handed to the
// connection: large enough that a write is a few syscalls per hundred
// thousand cells, small enough that the first bytes leave while the rest is
// still being encoded and that a response never exists twice in memory.
const flushBytes = 64 << 10

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
	// root and elapsed are the evaluation's span tree and wall time, kept for
	// the slow-query log, which is written after the response.
	root    *obs.Span
	elapsed time.Duration
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

// bodyWriter hands encoded bytes to the connection and counts them.
type bodyWriter struct {
	ctx context.Context
	w   io.Writer
	n   int64
}

// flush writes buf out and returns it emptied. It fails once the request is
// over — its deadline passed or the client went away — or a write fails; the
// encoder stops at the first failure, so the check costs one look per
// flushBytes, not one per row.
func (b *bodyWriter) flush(buf []byte) ([]byte, error) {
	if err := b.ctx.Err(); err != nil {
		return buf[:0], err
	}
	n, err := b.w.Write(buf)
	b.n += int64(n)
	return buf[:0], err
}

// encodeResponse streams res to w as the JSON encoding/json produces for
// api.QueryResponse — same field order, "nulls" omitted for a zero-row
// result, HTML-safe string escaping, trailing newline — without ever holding
// the rendered cells or a second copy of the body: rows are appended into one
// buffer that is flushed every flushBytes. It returns the bytes written and
// the error that cut the response short, if any.
func encodeResponse(ctx context.Context, w io.Writer, res *queryResult) (int64, error) {
	out := bodyWriter{ctx: ctx, w: w}
	cols := res.table.Columns()
	rows := res.table.Rows()
	var err error

	buf := make([]byte, 0, flushBytes+flushBytes/16)
	buf = append(buf, `{"columns":[`...)
	cells := make([]cellAppender, len(cols))
	nullable := make([]bool, len(cols))
	anyNullable := false
	for c, col := range cols {
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, col.Name())
		cells[c] = newCellAppender(col, res.dates[col.Name()])
		nullable[c] = col.HasNulls()
		anyNullable = anyNullable || nullable[c]
	}

	buf = append(buf, `],"rows":[`...)
	for i := 0; i < rows; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c, cell := range cells {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = cell(buf, i)
		}
		buf = append(buf, ']')
		if len(buf) >= flushBytes {
			if buf, err = out.flush(buf); err != nil {
				return out.n, err
			}
		}
	}
	buf = append(buf, ']')

	if rows > 0 {
		buf = append(buf, `,"nulls":[`...)
		// Without a NULL anywhere every row of the mask is the same bytes.
		var noNulls []byte
		if !anyNullable {
			noNulls = appendNullsRow(nil, cols, nullable, 0)
		}
		for i := 0; i < rows; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			if anyNullable {
				buf = appendNullsRow(buf, cols, nullable, i)
			} else {
				buf = append(buf, noNulls...)
			}
			if len(buf) >= flushBytes {
				if buf, err = out.flush(buf); err != nil {
					return out.n, err
				}
			}
		}
		buf = append(buf, ']')
	}

	buf = append(buf, `,"stats":`...)
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
	_, err = out.flush(buf)
	return out.n, err
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
