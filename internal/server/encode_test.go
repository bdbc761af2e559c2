package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/parallel"
	"holistic/internal/server/api"
)

// referenceBody is the response path encodeResponse replaced, kept as the
// oracle: render every cell to a string, collect [][]string and [][]bool, and
// let encoding/json write them as api.QueryResponse. It shares no code with
// the encoder — cell text comes from strconv and time directly — so byte
// identity with it is the wire contract, not a tautology.
func referenceBody(t testing.TB, res *queryResult) []byte {
	t.Helper()
	var resp api.QueryResponse
	cols := res.table.Columns()
	resp.Columns = make([]string, len(cols))
	for i, c := range cols {
		resp.Columns[i] = c.Name()
	}
	n := res.table.Rows()
	resp.Rows = make([][]string, n)
	resp.Nulls = make([][]bool, n)
	epoch := time.Unix(0, 0).UTC()
	for i := 0; i < n; i++ {
		row := make([]string, len(cols))
		nulls := make([]bool, len(cols))
		for c, col := range cols {
			nulls[c] = col.IsNull(i)
			switch {
			case nulls[c]:
			case col.Kind() == core.Int64 && res.dates[col.Name()]:
				row[c] = epoch.AddDate(0, 0, int(col.Int64(i))).Format("2006-01-02")
			case col.Kind() == core.Int64:
				row[c] = strconv.FormatInt(col.Int64(i), 10)
			case col.Kind() == core.Float64:
				row[c] = strconv.FormatFloat(col.Float64(i), 'g', -1, 64)
			case col.Kind() == core.String:
				row[c] = col.StringAt(i)
			default:
				row[c] = strconv.FormatBool(col.Bool(i))
			}
		}
		resp.Rows[i] = row
		resp.Nulls[i] = nulls
	}
	resp.Stats = res.stats
	resp.Trace = res.trace
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// Values every generator draws from besides random ones: the strings JSON
// escapes or replaces, and the floats whose text is special.
var (
	nastyStrings = []string{
		"", "plain", `quo"te`, `back\slash`, "tab\there", "nl\nline", "cr\rret", "bell\x07", "nul\x00",
		"\x1f", "\x7f", "<script>", "a&b", "x>y", "\b\f",
		"sep" + string(rune(0x2028)) + "line", string(rune(0x2029)),
		"bad\xffutf8", "\xc3", "\xe2\x80", "ok-é-日本-😀", "\xed\xa0\x80",
	}
	nastyFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, 2.2250738585072014e-308, 1, -1, 100, 1e21, 1e20, 123456789012345680, 0.1, 1.0 / 3,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.000001, 0.0000001,
	}
	nastyInts = []int64{0, 1, -1, 19723, -19723, -719162, -719163, 2932896, 2932897, math.MaxInt32, math.MinInt32}
)

// nullMode is how a generated column's NULL mask is drawn.
type nullMode int

const (
	nullsNone   nullMode = iota // no mask at all
	nullsSparse                 // about one row in eight
	nullsAll                    // every row
	nullsEmpty                  // a mask with no bit set
)

// randomColumn draws one column of n rows. next yields the randomness, so the
// same generator serves the seeded differential test and the fuzz target.
func randomColumn(name string, kind core.Kind, mode nullMode, n int, next func() uint64) *core.Column {
	var nulls []bool
	if mode != nullsNone {
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = mode == nullsAll || (mode == nullsSparse && next()%8 == 0)
		}
	}
	switch kind {
	case core.Int64:
		vals := make([]int64, n)
		for i := range vals {
			if r := next(); r%3 == 0 {
				vals[i] = nastyInts[r/3%uint64(len(nastyInts))]
			} else {
				vals[i] = int64(r>>8)%200000 - 100000
			}
		}
		return core.NewInt64Column(name, vals, nulls)
	case core.Float64:
		vals := make([]float64, n)
		for i := range vals {
			switch r := next(); r % 4 {
			case 0:
				vals[i] = nastyFloats[r/4%uint64(len(nastyFloats))]
			case 1:
				vals[i] = float64(int64(r>>8)%100000) / 100 // cents, as the benchmark's prices
			case 2:
				vals[i] = float64(int64(r>>8) % 1000) // integral
			default:
				vals[i] = math.Float64frombits(r)
			}
		}
		return core.NewFloat64Column(name, vals, nulls)
	case core.String:
		vals := make([]string, n)
		for i := range vals {
			r := next()
			vals[i] = nastyStrings[r%uint64(len(nastyStrings))]
			if r>>8%2 == 0 {
				vals[i] += nastyStrings[r>>16%uint64(len(nastyStrings))]
			}
		}
		return core.NewStringColumn(name, vals, nulls)
	default:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = next()%2 == 0
		}
		return core.NewBoolColumn(name, vals, nulls)
	}
}

// randomResult draws a result of n rows and ncols columns. Every INT64 column
// with an odd draw is a date column; names carry characters JSON escapes.
func randomResult(n, ncols int, mode func(c int) nullMode, trace bool, next func() uint64) *queryResult {
	res := &queryResult{dates: map[string]bool{}}
	cols := make([]*core.Column, ncols)
	for c := range cols {
		kind := core.Kind(next() % 4)
		name := fmt.Sprintf("c%d", c)
		if next()%4 == 0 {
			name += nastyStrings[next()%uint64(len(nastyStrings))]
		}
		cols[c] = randomColumn(name, kind, mode(c), n, next)
		if next()%2 == 1 {
			// Set for any kind: the flag must only ever act on INT64.
			res.dates[name] = true
		}
	}
	res.table = core.MustNewTable(cols...)
	res.stats = api.QueryStats{
		ElapsedMillis: float64(next()%1e9) / 1e4,
		CacheHits:     int64(next() % 1000),
		CacheMisses:   int64(next() % 1000),
		Operators:     int(next() % 3),
		SortsShared:   int(next() % 2),
		TreesShared:   int(next() % 2),
	}
	if trace {
		res.trace = "query 1.2ms\n  probe <x> & \"y\"\n"
	}
	return res
}

// checkAgainstReference asserts encodeResponse's body is the reference's,
// byte for byte, and that api.Client's types decode it to the same table.
func checkAgainstReference(t testing.TB, res *queryResult) {
	t.Helper()
	var got bytes.Buffer
	written, err := encodeResponse(context.Background(), &got, res)
	if err != nil {
		t.Fatalf("encodeResponse: %v", err)
	}
	if written != int64(got.Len()) {
		t.Fatalf("encodeResponse reported %d bytes, wrote %d", written, got.Len())
	}
	want := referenceBody(t, res)
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("body differs from encoding/json at byte %d of %d/%d:\n got  %q\n want %q",
			i, got.Len(), len(want), got.Bytes()[lo:min(i+40, got.Len())], want[lo:min(i+40, len(want))])
	}

	var decoded api.QueryResponse
	if err := json.Unmarshal(got.Bytes(), &decoded); err != nil {
		t.Fatalf("api.QueryResponse does not decode the body: %v", err)
	}
	n := res.table.Rows()
	if len(decoded.Rows) != n || len(decoded.Columns) != len(res.table.Columns()) {
		t.Fatalf("decoded %d rows x %d columns, want %d x %d", len(decoded.Rows), len(decoded.Columns), n, len(res.table.Columns()))
	}
	if decoded.Rows == nil {
		t.Fatal(`"rows" decoded as null, want an array even for zero rows`)
	}
	if (n == 0) != (decoded.Nulls == nil) {
		t.Fatalf("nulls present=%v for %d rows", decoded.Nulls != nil, n)
	}
	for i := range decoded.Nulls {
		for c, col := range res.table.Columns() {
			if decoded.Nulls[i][c] != col.IsNull(i) {
				t.Fatalf("nulls[%d][%d] = %v, column says %v", i, c, decoded.Nulls[i][c], col.IsNull(i))
			}
		}
	}
	if decoded.Stats != res.stats || decoded.Trace != res.trace {
		t.Fatalf("stats/trace did not round-trip: %+v %q", decoded.Stats, decoded.Trace)
	}
}

// TestEncodeResponseMatchesReference is the differential test of the wire
// contract: over randomized results of every shape the encoder distinguishes
// — all four kinds, date columns with negative days, NULL masks absent,
// sparse, full and empty (the precomputed-row path is the absent/empty one),
// zero rows, one and eight columns, bodies below and well above one flush,
// trace on and off — the streamed body is the one encoding/json wrote.
func TestEncodeResponseMatchesReference(t *testing.T) {
	modes := map[string]func(c int) nullMode{
		"no-nulls":    func(int) nullMode { return nullsNone },
		"empty-masks": func(int) nullMode { return nullsEmpty },
		"sparse":      func(int) nullMode { return nullsSparse },
		"all-null":    func(int) nullMode { return nullsAll },
		"mixed":       func(c int) nullMode { return nullMode(c % 4) },
	}
	seed := int64(0)
	for name, mode := range modes {
		for _, ncols := range []int{1, 3, 8} {
			for _, n := range []int{0, 1, 2, 37, 6000} {
				for _, trace := range []bool{false, true} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					res := randomResult(n, ncols, mode, trace, rng.Uint64)
					t.Run(fmt.Sprintf("%s/%dx%d/trace=%v", name, n, ncols, trace), func(t *testing.T) {
						checkAgainstReference(t, res)
					})
				}
			}
		}
	}
}

// withWorkers runs f under a process-wide worker limit of n.
func withWorkers(n int, f func()) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(n))
	f()
}

// boundaryResult is a result whose rows sit on chunk boundaries: an INT64, a
// STRING whose cells around every boundary need escaping, and a FLOAT64, with
// the mask drawn by mode.
func boundaryResult(n int, mode nullMode, pad string, next func() uint64) *queryResult {
	strs := make([]string, n)
	var nulls []bool
	if mode != nullsNone {
		nulls = make([]bool, n)
	}
	for i := range strs {
		strs[i] = pad + nastyStrings[next()%uint64(len(nastyStrings))]
		if b := i % chunkRows; b == 0 || b == chunkRows-1 {
			strs[i] = `end"of<chunk>` + string(rune(0x2028)) + "\x00\\"
		}
		if mode == nullsSparse {
			nulls[i] = next()%8 == 0
		}
	}
	res := &queryResult{dates: map[string]bool{}, stats: api.QueryStats{ElapsedMillis: 1.5, CacheHits: 2}}
	res.table = core.MustNewTable(
		randomColumn("id", core.Int64, mode, n, next),
		core.NewStringColumn("s", strs, nulls),
		randomColumn("f", core.Float64, nullsNone, n, next))
	return res
}

// TestEncodeResponseChunkBoundaries holds the chunked encoder to the
// reference where chunks meet: row counts around one and several chunks, with
// a mask (rendered by the workers), without one (the pre-built block) and
// with an empty one, and rows wide enough that a chunk outgrows its pooled
// buffer — on one worker (the loop), two and four. Every buffer drawn from
// the response pool is back when a body is complete.
func TestEncodeResponseChunkBoundaries(t *testing.T) {
	wide := strings.Repeat("w", 2*chunkBufBytes/chunkRows)
	poolsBefore := arena.Snapshot()
	for _, workers := range []int{1, 2, 4} {
		withWorkers(workers, func() {
			for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7} {
				for _, mode := range []nullMode{nullsNone, nullsSparse, nullsEmpty} {
					rng := rand.New(rand.NewSource(int64(n)))
					res := boundaryResult(n, mode, "", rng.Uint64)
					t.Run(fmt.Sprintf("workers=%d/rows=%d/nulls=%d", workers, n, mode), func(t *testing.T) {
						checkAgainstReference(t, res)
					})
				}
			}
			rng := rand.New(rand.NewSource(9))
			res := boundaryResult(3*chunkRows+7, nullsSparse, wide, rng.Uint64)
			t.Run(fmt.Sprintf("workers=%d/wide", workers), func(t *testing.T) {
				checkAgainstReference(t, res)
			})
		})
	}
	d := poolDeltas(poolsBefore, arena.Snapshot())["response"]
	if d.Gets == 0 || d.Gets != d.Puts || d.BytesInFlight != 0 {
		t.Fatalf("response pool after complete bodies: gets=%d puts=%d bytes_in_flight=%+d", d.Gets, d.Puts, d.BytesInFlight)
	}
}

// goroutineID parses the running goroutine's id out of its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestEncodeUsesWorkers checks the encoder is parallel where it may be: with
// two workers a 200k-row result's chunks are rendered on at least two
// goroutines, none of them the caller's, and the body is the one-worker body.
func TestEncodeUsesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res := randomResult(200_000, 3, func(c int) nullMode { return nullMode(c % 2 * int(nullsSparse)) }, false, rng.Uint64)
	var serial, parallelBody bytes.Buffer
	withWorkers(1, func() {
		if _, err := encodeResponse(context.Background(), &serial, res); err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(2, func() {
		if _, err := encodeResponse(context.Background(), &parallelBody, res); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(serial.Bytes(), parallelBody.Bytes()) {
		t.Fatal("the two-worker body differs from the one-worker body")
	}

	e := newRowEncoder(res)
	var mu sync.Mutex
	renderedOn := map[string]int{}
	first := e.cells[0]
	e.cells[0] = func(dst []byte, i int) []byte {
		if i%chunkRows == 0 {
			mu.Lock()
			renderedOn[goroutineID()]++
			mu.Unlock()
		}
		return first(dst, i)
	}
	var body bytes.Buffer
	if err := e.stream(&bodyWriter{ctx: context.Background(), w: &body}, 2); err != nil {
		t.Fatal(err)
	}
	if len(renderedOn) < 2 || renderedOn[goroutineID()] != 0 {
		t.Fatalf("chunks rendered per goroutine: %v (caller is %s); want two workers and the caller only writing", renderedOn, goroutineID())
	}
	if !bytes.Contains(serial.Bytes(), body.Bytes()) {
		t.Fatal("the streamed rows are not the one-worker body's rows")
	}
}

// TestEncodeResponseFlushes checks the body leaves in bounded pieces: a large
// result is written in many writes, none much larger than flushBytes.
func TestEncodeResponseFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := randomResult(50_000, 4, func(int) nullMode { return nullsNone }, false, rng.Uint64)
	var w chunkRecorder
	written, err := encodeResponse(context.Background(), &w, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < int(written/(2*flushBytes)) || len(w.sizes) < 4 {
		t.Fatalf("%d bytes left in only %d writes", written, len(w.sizes))
	}
	for _, sz := range w.sizes {
		if sz > 2*flushBytes {
			t.Fatalf("one write of %d bytes, flush threshold is %d", sz, flushBytes)
		}
	}
}

type chunkRecorder struct{ sizes []int }

func (c *chunkRecorder) Write(b []byte) (int, error) {
	c.sizes = append(c.sizes, len(b))
	return len(b), nil
}

// FuzzEncodeResponse draws column kinds, NULL masks and values from the fuzz
// input and holds the encoder to the reference body.
func FuzzEncodeResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 200, 17, 4, 99, 250, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x2b, 0x80}, 64))
	f.Add([]byte("\x05select <d> & \"x\" from t\n\xe2\x80\xa8"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input is a stream of randomness: consumed eight bytes at a
		// time, wrapping around, perturbed by position so a short input still
		// yields varied draws.
		pos := uint64(0)
		next := func() uint64 {
			var v uint64
			for k := 0; k < 8; k++ {
				if len(data) > 0 {
					v = v<<8 | uint64(data[pos%uint64(len(data))])
				}
				pos++
			}
			return v ^ (pos * 0x9e3779b97f4a7c15)
		}
		ncols := int(next()%8) + 1
		n := int(next() % 300)
		if next()%4 == 0 {
			n += chunkRows - 150 // a second chunk, and a boundary to get wrong
		}
		res := randomResult(n, ncols, func(int) nullMode { return nullMode(next() % 4) }, next()%2 == 0, next)
		checkAgainstReference(t, res)
	})
}

// TestEncodeResponseAllocs guards the point of the streaming encoder: what it
// allocates depends on the number of columns, never on the number of rows.
func TestEncodeResponseAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		rng := rand.New(rand.NewSource(7))
		res := randomResult(rows, 6, func(c int) nullMode { return nullMode(c % 2 * int(nullsSparse)) }, false, rng.Uint64)
		return testing.AllocsPerRun(5, func() {
			if _, err := encodeResponse(context.Background(), io.Discard, res); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	if large > small+2 || large > 40 {
		t.Fatalf("encoding 10,000 rows allocates %.0f times, 100 rows %.0f: allocations grow with rows", large, small)
	}
}

// BenchmarkEncodeResponse measures the response path without a server: 200k
// rows into io.Discard, over the cell mixes the benchmark workloads return
// (an INT64 id beside INT64 and FLOAT64 function results) and the ones they
// do not (dates, strings, NULLs).
func BenchmarkEncodeResponse(b *testing.B) {
	const rows = 200_000
	mixes := []struct {
		name  string
		kinds []core.Kind
		dates []bool
	}{
		{"int+float", []core.Kind{core.Int64, core.Float64}, nil},
		{"date+string", []core.Kind{core.Int64, core.String}, []bool{true, false}},
		{"6mixed", []core.Kind{core.Int64, core.Int64, core.Float64, core.Int64, core.Int64, core.String},
			[]bool{false, true, false, false, false, false}},
	}
	for _, mix := range mixes {
		for _, mode := range []nullMode{nullsNone, nullsSparse} {
			rng := rand.New(rand.NewSource(3))
			res := &queryResult{dates: map[string]bool{}}
			cols := make([]*core.Column, len(mix.kinds))
			for c, kind := range mix.kinds {
				name := fmt.Sprintf("c%d", c)
				cols[c] = benchColumn(name, kind, mode, rows, rng)
				res.dates[name] = mix.dates != nil && mix.dates[c]
			}
			res.table = core.MustNewTable(cols...)
			name := mix.name + "/nulls=none"
			if mode == nullsSparse {
				name = mix.name + "/nulls=sparse"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var written int64
				for i := 0; i < b.N; i++ {
					var err error
					if written, err = encodeResponse(context.Background(), io.Discard, res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
				b.ReportMetric(float64(written)/(1<<20), "MB/op")
			})
		}
	}
}

// benchColumn draws plausible values, not adversarial ones: ids and counts,
// prices in cents, recent dates, short words.
func benchColumn(name string, kind core.Kind, mode nullMode, n int, rng *rand.Rand) *core.Column {
	var nulls []bool
	if mode == nullsSparse {
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = rng.Intn(8) == 0
		}
	}
	switch kind {
	case core.Int64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 10_000 + rng.Int63n(20_000)
		}
		return core.NewInt64Column(name, vals, nulls)
	case core.Float64:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Int63n(1_000_000)) / 100
		}
		return core.NewFloat64Column(name, vals, nulls)
	default:
		words := []string{"alpha", "bravo", "charlie", "delta <d>", "echo & co"}
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[rng.Intn(len(words))]
		}
		return core.NewStringColumn(name, vals, nulls)
	}
}
