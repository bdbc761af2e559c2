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
	"slices"
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
//
// Work that repeats once per partition does not get a span per repetition:
// an accumulator (Accumulator) is one node of the tree that is entered many
// times (Enter), possibly concurrently, and holds the summed duration and
// the count of its entries; the spans opened beneath an entry are entries
// of the accumulator's own children, matched by name and order, so the
// subtree of an accumulator has the shape of one entry however many there
// were. Two thousand partitions and one partition render the same lines.
type Span struct {
	name  string
	phase bool
	start time.Time

	// acc is set on an entry: one timed pass through the accumulator acc.
	// An entry is not a node of the tree — End adds its duration to acc,
	// attributes land on acc, and children are entries of acc's children.
	acc *Span
	// last is the child of acc this entry opened most recently, the cursor
	// enterChild aligns the next one after. Guarded by acc.mu.
	last *Span

	mu       sync.Mutex
	ended    bool
	dur      time.Duration
	attrs    []attr
	children []*Span
	// Accumulators only: entries counts ended entries, open running ones.
	shared  bool
	entries int
	open    int
}

// attr is an attribute as stored: integers stay numeric until read, so
// SetInt and AddInt format nothing on the instrumented path.
type attr struct {
	key   string
	val   string
	n     int64
	isInt bool
}

func (a attr) render() Attr {
	if a.isInt {
		return Attr{Key: a.key, Value: strconv.FormatInt(a.n, 10)}
	}
	return Attr{Key: a.key, Value: a.val}
}

// node returns the tree node s reads and annotates: the accumulator for an
// entry, s itself otherwise.
func (s *Span) node() *Span {
	if s.acc != nil {
		return s.acc
	}
	return s
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a new child span under s. On a nil receiver it returns nil,
// so instrumentation chains stay disabled end to end.
func (s *Span) Child(name string) *Span {
	return s.child(name, false)
}

func (s *Span) child(name string, phase bool) *Span {
	if s == nil {
		return nil
	}
	if s.acc != nil {
		return s.acc.enterChild(s, name, phase)
	}
	return s.attach(&Span{name: name, phase: phase, start: time.Now()})
}

func (s *Span) attach(c *Span) *Span {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Accumulator starts a child span that is entered many times instead of
// running once: it has no start of its own, its duration is the sum of its
// entries' durations — busy time, which exceeds the wall time of a parent
// whose workers entered it in parallel — and it counts as ended whenever no
// entry is running.
func (s *Span) Accumulator(name string) *Span {
	if s == nil {
		return nil
	}
	return s.attach(&Span{name: name, shared: true})
}

// Enter starts one entry into an accumulator. The entry is used like any
// span — Child, Phase, Set, End — and everything it records is folded into
// the accumulator's subtree. On a span that is not an accumulator Enter
// returns nil: nothing is recorded.
func (s *Span) Enter() *Span {
	if s == nil || !s.shared {
		return nil
	}
	s.mu.Lock()
	s.open++
	s.mu.Unlock()
	return &Span{acc: s, start: time.Now()}
}

// enterChild starts an entry into the child of accumulator acc that stands
// for the next child named name of the entry from. Children are matched in
// order: the search starts after the child from opened last, and a child
// that is not there yet is inserted at that point. Entries that open the
// same names in the same order therefore share every node, an entry that
// opens a subsequence (a cache hit skips the build phases) shares the nodes
// it has, and a single entry produces exactly the tree plain spans would.
func (acc *Span) enterChild(from *Span, name string, phase bool) *Span {
	acc.mu.Lock()
	at := 0
	if from.last != nil {
		at = slices.Index(acc.children, from.last) + 1
	}
	var c *Span
	for _, cand := range acc.children[at:] {
		if cand.name == name && cand.phase == phase {
			c = cand
			break
		}
	}
	if c == nil {
		c = &Span{name: name, phase: phase, shared: true}
		acc.children = slices.Insert(acc.children, at, c)
	}
	from.last = c
	acc.mu.Unlock()
	return c.Enter()
}

// Phase starts a child span marked as an aggregation phase: PhaseTotals
// sums phase spans by name, while unmarked
// spans — evaluation groupings, workers, cache probes — only structure the
// tree. The phase names the operator emits are enumerated in DESIGN.md §9.
func (s *Span) Phase(name string) *Span {
	return s.child(name, true)
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
// call wins. Ending an entry adds its duration to its accumulator; End on
// an accumulator itself does nothing.
func (s *Span) End() {
	if s == nil || s.shared {
		return
	}
	s.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
	if acc := s.acc; acc != nil && first {
		acc.mu.Lock()
		acc.dur += s.dur
		acc.entries++
		acc.open--
		acc.mu.Unlock()
	}
}

// Set records a string attribute, replacing an existing value under the
// same key.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.node().setAttr(attr{key: key, val: value}, false)
}

// SetInt records an integer attribute, replacing an existing value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.node().setAttr(attr{key: key, n: value, isInt: true}, false)
}

// AddInt adds delta to the integer attribute under key, starting from zero:
// on a span that runs once it reads like SetInt, on an accumulator the
// entries' values sum.
func (s *Span) AddInt(key string, delta int64) {
	if s == nil {
		return
	}
	s.node().setAttr(attr{key: key, n: delta, isInt: true}, true)
}

func (s *Span) setAttr(a attr, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			if add && s.attrs[i].isInt {
				a.n += s.attrs[i].n
			}
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// Name returns the span's name; "" on a nil receiver.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.node().name
}

// IsPhase reports whether the span is an aggregation phase.
func (s *Span) IsPhase() bool { return s != nil && s.node().phase }

// Ended reports whether End has been called — for an accumulator, whether
// no entry is running.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared {
		return s.open == 0
	}
	return s.ended
}

// Duration returns the span's duration: fixed once ended, the running time
// so far otherwise; for an accumulator, the sum over its ended entries.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended || s.shared {
		return s.dur
	}
	return time.Since(s.start)
}

// Count returns how many times the span ran: the number of ended entries
// of an accumulator, 1 for any other span.
func (s *Span) Count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared {
		return s.entries
	}
	return 1
}

// Attr returns the value recorded under key, or "" when absent.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s = s.node()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.key == key {
			return a.render().Value
		}
	}
	return ""
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s = s.node()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.render()
	}
	return out
}

// Children returns a copy of the span's direct children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s = s.node()
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.children)
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
//	  eval 8.2ms function=count(distinct) partitions=2000
//	    probe 6.1ms count=2000
//
// Unfinished spans are marked, an accumulator entered more than once shows
// its count; attribute order is insertion order.
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
		if n := sp.Count(); n > 1 {
			fmt.Fprintf(&b, " count=%d", n)
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
