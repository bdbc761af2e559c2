// Package obs is the stdlib-only observability substrate of the query path:
// hierarchical trace spans threaded through the window operator via context
// (span.go, context.go), and a metrics registry with Prometheus text
// exposition (metrics.go, expfmt.go).
//
// The package is designed around one invariant: a nil *Span is a fully
// functional disabled span. Every method no-ops on a nil receiver, so the
// instrumented code carries no "is tracing on" branches and — crucially —
// performs zero allocations when tracing is disabled. The alloc guards in
// internal/core pin that property.
package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so reading a finished trace never races with formatting.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed region of execution. Spans form a tree: phases of a
// query, per-function evaluations, parallel worker bodies. Timings use the
// runtime's monotonic clock (time.Now / time.Since), so spans are immune to
// wall-clock steps.
//
// A span is safe for concurrent use: parallel workers may attach children
// and attributes to the same parent simultaneously. A nil *Span is the
// disabled span — every method is a no-op and Child returns nil, so a
// disabled trace costs nothing along the instrumented path.
type Span struct {
	name  string
	phase bool
	start time.Time

	mu       sync.Mutex
	ended    bool
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a new child span under s. On a nil receiver it returns nil,
// so instrumentation chains stay disabled end to end.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Phase starts a child span marked as an aggregation phase: PhaseTotals
// sums phase spans by name, while unmarked
// spans — evaluation groupings, workers, cache probes — only structure the
// tree. The phase names the operator emits are enumerated in DESIGN.md §9.
func (s *Span) Phase(name string) *Span {
	c := s.Child(name)
	if c != nil {
		c.phase = true
	}
	return c
}

// Timed runs fn inside a phase span named name. With a nil receiver fn
// still runs, just untimed.
func (s *Span) Timed(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	c := s.Phase(name)
	fn()
	c.End()
}

// End finishes the span, fixing its duration. End is idempotent; the first
// call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Set records a string attribute, replacing an existing value under the
// same key.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatInt(value, 10))
}

// Name returns the span's name; "" on a nil receiver.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// IsPhase reports whether the span is an aggregation phase.
func (s *Span) IsPhase() bool { return s != nil && s.phase }

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Duration returns the span's duration: fixed once ended, the running time
// so far otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Attr returns the value recorded under key, or "" when absent.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a copy of the span's direct children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Walk visits the span and its descendants pre-order, passing each span's
// depth below s.
func (s *Span) Walk(visit func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	s.walk(visit, 0)
}

func (s *Span) walk(visit func(sp *Span, depth int), depth int) {
	visit(s, depth)
	for _, c := range s.Children() {
		c.walk(visit, depth+1)
	}
}

// PhaseTotal is one aggregated phase: total duration of every phase span
// sharing the name.
type PhaseTotal struct {
	Name  string
	Total time.Duration
}

// PhaseTotals aggregates the phase-marked spans of the tree by name, in
// first-seen pre-order: Figure 14's per-phase cost breakdown.
func (s *Span) PhaseTotals() []PhaseTotal {
	if s == nil {
		return nil
	}
	var order []string
	totals := make(map[string]time.Duration)
	s.Walk(func(sp *Span, _ int) {
		if !sp.IsPhase() {
			return
		}
		if _, ok := totals[sp.name]; !ok {
			order = append(order, sp.name)
		}
		totals[sp.name] += sp.Duration()
	})
	out := make([]PhaseTotal, len(order))
	for i, n := range order {
		out[i] = PhaseTotal{Name: n, Total: totals[n]}
	}
	return out
}

// Render formats the span tree as indented text, one span per line:
//
//	run 12.4ms rows=20000
//	  partition+order sort 4.0ms
//	  eval 8.2ms function=count(distinct) engine=mst
//
// Unfinished spans are marked; attribute order is insertion order.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Walk(func(sp *Span, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(sp.name)
		fmt.Fprintf(&b, " %v", sp.Duration().Round(time.Microsecond))
		if !sp.Ended() {
			b.WriteString(" (unfinished)")
		}
		for _, a := range sp.Attrs() {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteByte('=')
			b.WriteString(a.Value)
		}
		b.WriteByte('\n')
	})
	return b.String()
}
