package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func scrape(t *testing.T, r *Registry) (string, *ParsedMetrics) {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	p, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("ParseText: %v\npayload:\n%s", err, b.String())
	}
	return b.String(), p
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.", "route", "code")
	g := r.NewGauge("inflight", "In-flight requests.")
	c.With("POST /v1/query", "200").Add(3)
	c.With("POST /v1/query", "400").Inc()
	c.With("GET /v1/healthz", "200").Inc()
	g.With().Set(2)
	g.With().Add(-1)

	text, p := scrape(t, r)
	if p.Types["requests_total"] != "counter" || p.Types["inflight"] != "gauge" {
		t.Fatalf("types = %v", p.Types)
	}
	if v, ok := p.Value("requests_total", "route=POST /v1/query", "code=200"); !ok || v != 3 {
		t.Fatalf("requests 200 = %v %v", v, ok)
	}
	if v, ok := p.Value("requests_total", "route=POST /v1/query", "code=400"); !ok || v != 1 {
		t.Fatalf("requests 400 = %v %v", v, ok)
	}
	if v, ok := p.Value("inflight"); !ok || v != 1 {
		t.Fatalf("inflight = %v %v", v, ok)
	}
	// Counters never go backwards: a negative Add is dropped.
	cc := c.With("POST /v1/query", "200")
	cc.Add(-5)
	if v, _ := p.Value("requests_total", "route=POST /v1/query", "code=200"); v != 3 {
		t.Fatalf("negative add changed parsed snapshot: %v", v)
	}
	_, p2 := scrape(t, r)
	if v, _ := p2.Value("requests_total", "route=POST /v1/query", "code=200"); v != 3 {
		t.Fatalf("negative add applied: %v", v)
	}
	// Deterministic rendering: same registry, same payload.
	text2, _ := scrape(t, r)
	if text != text2 {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", text, text2)
	}
}

// A cell fills a 128-byte size class with count at offset 64, so the
// cache line the query path adds to from every core holds nothing else.
func TestCounterCellOwnsItsCacheLine(t *testing.T) {
	if size, off := unsafe.Sizeof(cell{}), unsafe.Offsetof(cell{}.count); size != 128 || off != 64 {
		t.Fatalf("cell is %d bytes with count at offset %d, want 128 and 64", size, off)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route")
	cell := h.With("q")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		cell.Observe(v)
	}
	_, p := scrape(t, r)
	want := map[string]float64{"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
	for le, n := range want {
		if v, ok := p.Value("latency_seconds_bucket", "route=q", "le="+le); !ok || v != n {
			t.Fatalf("bucket le=%s = %v %v, want %v", le, v, ok, n)
		}
	}
	if v, _ := p.Value("latency_seconds_count", "route=q"); v != 4 {
		t.Fatalf("count = %v", v)
	}
	if v, _ := p.Value("latency_seconds_sum", "route=q"); math.Abs(v-5.555) > 1e-9 {
		t.Fatalf("sum = %v", v)
	}
	// Boundary value lands in its bucket (le is inclusive).
	cell.Observe(0.01)
	_, p = scrape(t, r)
	if v, _ := p.Value("latency_seconds_bucket", "route=q", "le=0.01"); v != 2 {
		t.Fatalf("inclusive le bucket = %v, want 2", v)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	hits := 0.0
	r.NewCounterFunc("cache_hits_total", "Cache hits.", []string{"cache"}, func() []Sample {
		return []Sample{{Labels: []string{"tree"}, Value: hits}}
	})
	r.NewGaugeFunc("pool_bytes", "Pool bytes in flight.", []string{"pool"}, func() []Sample {
		return []Sample{
			{Labels: []string{"int32"}, Value: 128},
			{Labels: []string{"int64"}, Value: 256},
		}
	})
	hits = 7
	_, p := scrape(t, r)
	if v, ok := p.Value("cache_hits_total", "cache=tree"); !ok || v != 7 {
		t.Fatalf("cache_hits_total = %v %v", v, ok)
	}
	if v, ok := p.Value("pool_bytes", "pool=int64"); !ok || v != 256 {
		t.Fatalf("pool_bytes = %v %v", v, ok)
	}
}

func TestRegisterSameNameSharesFamily(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("c_total", "x")
	b := r.NewCounter("c_total", "x")
	a.With().Inc()
	b.With().Inc()
	_, p := scrape(t, r)
	if v, _ := p.Value("c_total"); v != 2 {
		t.Fatalf("shared family value = %v, want 2", v)
	}
}

// TestDeclarationMismatchPanics pins that a series cannot be resolved with
// the wrong number of label values, nor a name redeclared with another
// type or other label names: either would render lines ParseText rejects
// as duplicates, so they fail where they are declared instead.
func TestDeclarationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("one_label_total", "x", "x")
	h := r.NewHistogram("one_label_seconds", "x", nil, "x")
	r.NewCounterFunc("func_total", "x", []string{"x"}, func() []Sample {
		return []Sample{{Labels: []string{"a", "b"}, Value: 1}}
	})
	for name, f := range map[string]func(){
		"counter, no value":          func() { c.With() },
		"counter, two values":        func() { c.With("a", "b") },
		"gauge, one value":           func() { r.NewGauge("no_label", "x").With("a") },
		"histogram, two values":      func() { h.With("a", "b") },
		"other type":                 func() { r.NewGauge("one_label_total", "x", "x") },
		"other label names":          func() { r.NewCounter("one_label_total", "x", "y") },
		"more label names":           func() { r.NewCounter("one_label_total", "x", "x", "y") },
		"func-backed over a counter": func() { r.NewCounterFunc("one_label_total", "x", []string{"x"}, func() []Sample { return nil }) },
		"func sample, two values":    func() { r.WriteText(io.Discard) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	// The matching declaration still shares the family.
	c.With("a").Inc()
	r.NewCounter("one_label_total", "x", "x").With("a").Inc()
	if v := c.With("a").Value(); v != 2 {
		t.Fatalf("shared cell = %v, want 2", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("weird_total", "x", "q")
	c.With("a\"b\\c\nd").Inc()
	_, p := scrape(t, r)
	if v, ok := p.Value("weird_total", `q=a"b\c`+"\nd"); !ok || v != 1 {
		t.Fatalf("escaped label lost: %v %v (samples %v)", v, ok, p.Samples)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ops_total", "x", "worker")
	h := r.NewHistogram("dur_seconds", "x", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < 1000; i++ {
				c.With(name).Inc()
				h.With().Observe(0.001)
			}
		}(w)
	}
	wg.Wait()
	_, p := scrape(t, r)
	for w := 0; w < 8; w++ {
		if v, _ := p.Value("ops_total", "worker="+string(rune('a'+w))); v != 1000 {
			t.Fatalf("worker %d = %v", w, v)
		}
	}
	if v, _ := p.Value("dur_seconds_count"); v != 8000 {
		t.Fatalf("histogram count = %v", v)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.0001, 2, 4)
	want := []float64{0.0001, 0.0002, 0.0004, 0.0008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if len(DefaultLatencyBuckets) != 18 {
		t.Fatalf("default buckets = %d", len(DefaultLatencyBuckets))
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"no_type_decl 1\n",
		"# TYPE x counter\nx{l=nope} 1\n",
		"# TYPE x counter\nx 1\nx 2\n",
		"# TYPE x wat\n",
		"# TYPE x counter\nx{l=\"unterminated} 1\n",
		"# TYPE x counter\nx notanumber\n",
	}
	for _, c := range cases {
		if _, err := ParseText(c); err == nil {
			t.Fatalf("ParseText accepted %q", c)
		}
	}
}
