package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric registry: counters, gauges and fixed-bucket histograms with label
// vectors, rendered in the Prometheus text exposition format (version
// 0.0.4) by WriteText. Families render in registration order and series in
// sorted label order, so two scrapes of an idle registry are byte-identical
// — the property the exposition round-trip tests rely on.

// Sample is one series produced by a func-backed metric: label values (in
// the family's label order) and the current value.
type Sample struct {
	Labels []string
	Value  float64
}

// Registry holds metric families. The zero value is not ready; use
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry. The packages below the server
// declare their event counters in it at package init, next to the code
// that counts them; windowd's /v1/metrics writes it after the server's own
// registry.
var Default = NewRegistry()

type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only
	sample          func() []Sample

	mu    sync.Mutex
	cells map[string]*cell
}

type cell struct {
	labelValues []string
	val         atomicFloat // gauge value
	// histogram state
	bcounts []atomic.Int64
	sum     atomicFloat
	// count is a counter's value or a histogram's observation count, one
	// atomic add per event: the query path adds to counters per partition
	// from every core at once. Offset 64 in a 128-byte object, it shares
	// its cache line with no other object.
	count atomic.Int64
	_     [56]byte
}

// atomicFloat is a float64 with atomic Add/Store/Load, for gauges and
// histogram sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// register appends a family, or returns the existing one under the same
// name (re-registration hands back the same handles, so package-level
// metrics can be declared from multiple constructors safely). Redeclaring a
// name with another type, other label names or the other kind (func-backed
// or not) panics: both declarations could not render under one name.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.fams {
		if have.name != f.name {
			continue
		}
		if have.typ != f.typ || !slices.Equal(have.labels, f.labels) || (have.sample == nil) != (f.sample == nil) {
			panic(fmt.Sprintf("obs: %s declared as %s %v, redeclared as %s %v", f.name, have.typ, have.labels, f.typ, f.labels))
		}
		return have
	}
	r.fams = append(r.fams, f)
	return f
}

// NewCounter registers a monotonically increasing counter vector.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	return &Counter{f: r.register(&family{name: name, help: help, typ: "counter", labels: labels, cells: map[string]*cell{}})}
}

// NewGauge registers a gauge vector.
func (r *Registry) NewGauge(name, help string, labels ...string) *Gauge {
	return &Gauge{f: r.register(&family{name: name, help: help, typ: "gauge", labels: labels, cells: map[string]*cell{}})}
}

// NewHistogram registers a histogram vector with the given bucket upper
// bounds (ascending; the +Inf bucket is implicit). Nil buckets select
// DefaultLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return &Histogram{f: r.register(&family{name: name, help: help, typ: "histogram", labels: labels, buckets: buckets, cells: map[string]*cell{}})}
}

// NewCounterFunc registers a counter family whose series are produced by fn
// at scrape time — for counters owned elsewhere (cache statistics, pool and
// arena counters). fn must report monotonically non-decreasing values.
func (r *Registry) NewCounterFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: "counter", labels: labels, sample: fn})
}

// NewGaugeFunc registers a gauge family whose series are produced by fn at
// scrape time.
func (r *Registry) NewGaugeFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: "gauge", labels: labels, sample: fn})
}

// DefaultLatencyBuckets are the fixed log-scale latency bucket bounds in
// seconds: 100µs doubling up to ~13s. Log-scale bounds keep relative error
// constant across the microsecond-to-seconds range windowd queries span.
var DefaultLatencyBuckets = ExpBuckets(100e-6, 2, 18)

// ExpBuckets returns n bucket bounds growing exponentially from start by
// factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// checkLabels panics unless values holds one value per label name: a
// series with fewer or more would render as a duplicate or a stranger.
func (f *family) checkLabels(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes label values for %v, got %q", f.name, f.labels, values))
	}
}

func (f *family) cell(labelValues []string) *cell {
	f.checkLabels(labelValues)
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.cells[key]
	if !ok {
		c = &cell{labelValues: append([]string(nil), labelValues...)}
		if f.typ == "histogram" {
			c.bcounts = make([]atomic.Int64, len(f.buckets))
		}
		f.cells[key] = c
	}
	return c
}

// Counter is a monotonically increasing metric vector.
type Counter struct{ f *family }

// With resolves the series for the given label values (one per registered
// label name; any other count panics).
func (c *Counter) With(labelValues ...string) *CounterCell {
	return &CounterCell{c.f.cell(labelValues)}
}

// CounterCell is one counter series.
type CounterCell struct{ c *cell }

// Inc adds 1.
func (c *CounterCell) Inc() { c.c.count.Add(1) }

// Add adds n, which must be non-negative (counters are monotonic);
// negative deltas are dropped.
func (c *CounterCell) Add(n int64) {
	if n > 0 {
		c.c.count.Add(n)
	}
}

// Value reads the counter.
func (c *CounterCell) Value() float64 { return float64(c.c.count.Load()) }

// Gauge is a point-in-time metric vector.
type Gauge struct{ f *family }

// With resolves the series for the given label values.
func (g *Gauge) With(labelValues ...string) *GaugeCell {
	return &GaugeCell{g.f.cell(labelValues)}
}

// GaugeCell is one gauge series.
type GaugeCell struct{ c *cell }

// Set stores v.
func (g *GaugeCell) Set(v float64) { g.c.val.Store(v) }

// Add adds v (possibly negative).
func (g *GaugeCell) Add(v float64) { g.c.val.Add(v) }

// Histogram is a fixed-bucket histogram vector.
type Histogram struct{ f *family }

// With resolves the series for the given label values.
func (h *Histogram) With(labelValues ...string) *HistogramCell {
	return &HistogramCell{c: h.f.cell(labelValues), buckets: h.f.buckets}
}

// HistogramCell is one histogram series.
type HistogramCell struct {
	c       *cell
	buckets []float64
}

// Observe records one value.
func (h *HistogramCell) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.buckets) {
		h.c.bcounts[i].Add(1)
	}
	h.c.sum.Add(v)
	h.c.count.Add(1)
}

// WriteText renders every family in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		if f.sample != nil {
			for _, s := range f.sample() {
				f.checkLabels(s.Labels)
				writeSample(&b, f.name, f.labels, s.Labels, "", "", s.Value)
			}
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.cells))
		for k := range f.cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cells := make([]*cell, len(keys))
		for i, k := range keys {
			cells[i] = f.cells[k]
		}
		f.mu.Unlock()
		for _, c := range cells {
			if f.typ != "histogram" {
				// A counter's count or a gauge's val: the other stays 0.
				writeSample(&b, f.name, f.labels, c.labelValues, "", "", float64(c.count.Load())+c.val.Load())
				continue
			}
			cum := int64(0)
			for i, bound := range f.buckets {
				cum += c.bcounts[i].Load()
				writeSample(&b, f.name+"_bucket", f.labels, c.labelValues, "le", formatFloat(bound), float64(cum))
			}
			total := c.count.Load()
			writeSample(&b, f.name+"_bucket", f.labels, c.labelValues, "le", "+Inf", float64(total))
			writeSample(&b, f.name+"_sum", f.labels, c.labelValues, "", "", c.sum.Load())
			writeSample(&b, f.name+"_count", f.labels, c.labelValues, "", "", float64(total))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample renders one series line, values holding one value per label
// name; extraKey/extraValue append a trailing label (the histogram "le").
func writeSample(b *strings.Builder, name string, labels, values []string, extraKey, extraValue string, v float64) {
	b.WriteString(name)
	n := len(labels)
	if n > 0 || extraKey != "" {
		b.WriteByte('{')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraKey != "" {
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
