package obs

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsDisabled(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	if c := s.Phase("x"); c != nil {
		t.Fatalf("nil.Phase = %v, want nil", c)
	}
	ran := false
	s.Timed("x", func() { ran = true })
	if !ran {
		t.Fatal("Timed on nil span did not run fn")
	}
	if a := s.Accumulator("x"); a != nil || a.Enter() != nil {
		t.Fatalf("nil.Accumulator = %v, want a nil span whose Enter is nil", a)
	}
	s.End()
	s.Set("k", "v")
	s.SetInt("k", 1)
	s.AddInt("k", 1)
	s.AddValue("k", "v")
	if s.Name() != "" || s.IsPhase() || s.Ended() || s.Duration() != 0 || s.Attr("k") != "" || s.Count() != 0 {
		t.Fatal("nil span accessors not zero")
	}
	if s.Attrs() != nil || s.Children() != nil || s.PhaseTotals() != nil {
		t.Fatal("nil span slices not nil")
	}
	s.Walk(func(*Span, int) { t.Fatal("Walk visited nil span") })
	if s.Render() != "" {
		t.Fatal("nil span Render not empty")
	}
}

func TestNilSpanZeroAlloc(t *testing.T) {
	var s *Span
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		c := s.Child("child")
		c.Set("k", "v")
		c.SetInt("n", 7)
		c.AddInt("n", 7)
		c.AddValue("form", "full")
		c.End()
		e := s.Accumulator("eval").Enter()
		e.Phase("probe").End()
		e.End()
		s.Timed("phase", fn)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per run, want 0", allocs)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("run")
	root.SetInt("rows", 100)
	a := root.Phase("sort")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("eval")
	b.Set("engine", "mst")
	p := b.Phase("probe")
	p.End()
	b.End()
	root.End()

	if !root.Ended() {
		t.Fatal("root not ended")
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "sort" || kids[1].Name() != "eval" {
		t.Fatalf("children = %v", kids)
	}
	if !kids[0].IsPhase() || kids[1].IsPhase() {
		t.Fatal("phase marking wrong")
	}
	if got := b.Attr("engine"); got != "mst" {
		t.Fatalf("Attr(engine) = %q", got)
	}
	if root.Duration() < a.Duration() {
		t.Fatalf("root %v shorter than child %v", root.Duration(), a.Duration())
	}
	// End is idempotent: duration is fixed by the first call.
	d := root.Duration()
	time.Sleep(time.Millisecond)
	root.End()
	if root.Duration() != d {
		t.Fatal("second End changed duration")
	}
}

func TestPhaseTotalsAggregates(t *testing.T) {
	root := NewSpan("run")
	for i := 0; i < 3; i++ {
		eval := root.Child("eval") // structural: must not appear in totals
		eval.Timed("probe", func() { time.Sleep(time.Millisecond) })
		eval.End()
	}
	root.Timed("sort", func() {})
	root.End()

	totals := root.PhaseTotals()
	if len(totals) != 2 {
		t.Fatalf("totals = %+v, want probe+sort", totals)
	}
	if totals[0].Name != "probe" || totals[1].Name != "sort" {
		t.Fatalf("order = %+v", totals)
	}
	if totals[0].Total < 3*time.Millisecond {
		t.Fatalf("probe total %v, want >= 3ms", totals[0].Total)
	}
}

func TestSpanSetReplaces(t *testing.T) {
	s := NewSpan("x")
	s.Set("k", "a")
	s.Set("k", "b")
	if got := s.Attrs(); len(got) != 1 || got[0].Value != "b" {
		t.Fatalf("attrs = %v", got)
	}
}

// TestAddValueListsDistinctValues: on an accumulator, AddValue keeps one
// value while every entry records the same one, and lists the distinct values
// in sorted order once they differ, whichever order entries record them in.
func TestAddValueListsDistinctValues(t *testing.T) {
	acc := NewSpan("run").Accumulator("build")
	for _, v := range []string{"slide", "slide"} {
		e := acc.Enter()
		e.AddValue("form", v)
		e.End()
	}
	if got := acc.Attr("form"); got != "slide" {
		t.Fatalf("form = %q after two equal values, want slide", got)
	}
	var wg sync.WaitGroup
	for _, v := range []string{"leaf", "full", "slide", "leaf"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := acc.Enter()
			e.AddValue("form", v)
			e.End()
		}()
	}
	wg.Wait()
	if got := acc.Attr("form"); got != "full+leaf+slide" {
		t.Fatalf("form = %q, want full+leaf+slide", got)
	}
}

// shape renders a tree as indented names.
func shape(root *Span) string {
	var b strings.Builder
	root.Walk(func(sp *Span, depth int) {
		b.WriteString(strings.Repeat(" ", depth) + sp.Name() + "\n")
	})
	return b.String()
}

// evalOnce records what one partition's evaluation records under parent:
// build phases (on a cache miss), then a probe with its workers.
func evalOnce(parent *Span, build bool, workers int) {
	if build {
		b := parent.Phase("build")
		for level := 1; level <= 2; level++ {
			l := b.Child("level")
			l.SetInt("level", int64(level))
			l.AddInt("runs", 10)
			l.End()
		}
		b.End()
	}
	p := parent.Phase("probe")
	for w := 0; w < workers; w++ {
		ws := p.Child("worker")
		ws.AddInt("chunks", 3)
		ws.End()
	}
	p.End()
}

// TestAccumulatorFoldsEntries pins the accumulator contract: one entry
// leaves the tree plain spans would, any number of entries leave that same
// tree — siblings of one entry stay apart, the k-th child of every entry
// lands on one node — with durations and AddInt attributes summed, SetInt
// attributes replaced and the count rendered.
func TestAccumulatorFoldsEntries(t *testing.T) {
	plain := NewSpan("run")
	pe := plain.Child("eval")
	evalOnce(pe, true, 2)
	pe.End()
	plain.End()

	once := NewSpan("run")
	e := once.Accumulator("eval").Enter()
	evalOnce(e, true, 2)
	e.End()
	once.End()
	if got, want := shape(once), shape(plain); got != want {
		t.Fatalf("one entry renders\n%s\nplain spans render\n%s", got, want)
	}
	if strings.Contains(once.Render(), "count=") {
		t.Fatalf("a single entry renders a count:\n%s", once.Render())
	}

	many := NewSpan("run")
	acc := many.Accumulator("eval")
	if acc.Ended() != true || acc.Count() != 0 {
		t.Fatal("an accumulator nobody entered must read as ended, count 0")
	}
	const entries = 50
	for i := 0; i < entries; i++ {
		e := acc.Enter()
		if acc.Ended() {
			t.Fatal("accumulator reads ended while an entry runs")
		}
		// Hits skip the build phases, most probes run on one worker: the
		// entries' children are subsequences of the fullest entry's.
		evalOnce(e, i%5 == 2, 1+i%2)
		time.Sleep(10 * time.Microsecond)
		e.End()
		e.End() // idempotent: folded once
	}
	many.End()
	if got, want := shape(many), shape(plain); got != want {
		t.Fatalf("%d entries render\n%s\nwant the tree of one\n%s", entries, got, want)
	}
	if !acc.Ended() || acc.Count() != entries || acc.Duration() < entries*10*time.Microsecond {
		t.Fatalf("accumulator after %d entries: ended=%v count=%d duration=%v", entries, acc.Ended(), acc.Count(), acc.Duration())
	}
	build, probe := acc.Children()[0], acc.Children()[1]
	if build.Name() != "build" || !build.IsPhase() || build.Count() != entries/5 {
		t.Fatalf("build node: name=%q phase=%v count=%d, want %d entries", build.Name(), build.IsPhase(), build.Count(), entries/5)
	}
	if l2 := build.Children()[1]; l2.Attr("level") != "2" || l2.Attr("runs") != "100" {
		t.Fatalf("second level node: attrs %v, want level=2 (replaced) runs=100 (summed)", l2.Attrs())
	}
	w0, w1 := probe.Children()[0], probe.Children()[1]
	if w0.Count() != entries || w1.Count() != entries/2 || w0.Attr("chunks") != "150" {
		t.Fatalf("workers: first count=%d chunks=%s, second count=%d", w0.Count(), w0.Attr("chunks"), w1.Count())
	}
	if probe.Duration() > acc.Duration() || w0.Duration() > probe.Duration() {
		t.Fatalf("summed child outlasts summed parent: eval %v probe %v worker %v", acc.Duration(), probe.Duration(), w0.Duration())
	}
	if !strings.Contains(many.Render(), "probe ") || !strings.Contains(many.Render(), " count=50") {
		t.Fatalf("render lacks the entry count:\n%s", many.Render())
	}
	totals := many.PhaseTotals()
	if len(totals) != 2 || totals[0].Name != "build" || totals[1].Name != "probe" || totals[1].Total != probe.Duration() {
		t.Fatalf("phase totals = %+v", totals)
	}
	if plain.Child("x").Enter() != nil {
		t.Fatal("Enter on a span that is not an accumulator must record nothing")
	}
}

// TestAccumulatorConcurrentEntries enters one accumulator from many
// goroutines at once, as every partition's worker does: the tree stays that
// of one entry and nothing is lost (run under -race).
func TestAccumulatorConcurrentEntries(t *testing.T) {
	root := NewSpan("run")
	acc := root.Accumulator("eval")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := acc.Enter()
				evalOnce(e, i%3 == 0, 1)
				e.AddInt("cache_hits", 1)
				e.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if acc.Count() != 1600 || acc.Attr("cache_hits") != "1600" || !acc.Ended() {
		t.Fatalf("count=%d cache_hits=%s ended=%v, want 1600 / 1600 / true", acc.Count(), acc.Attr("cache_hits"), acc.Ended())
	}
	if got, want := shape(root), "run\n eval\n  build\n   level\n   level\n  probe\n   worker\n"; got != want {
		t.Fatalf("tree after concurrent entries:\n%s\nwant\n%s", got, want)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("run")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("worker")
				c.SetInt("chunk", int64(j))
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestRender(t *testing.T) {
	root := NewSpan("run")
	c := root.Phase("sort")
	c.Set("rows", "5")
	c.End()
	root.Child("open") // left unfinished deliberately
	root.End()
	out := root.Render()
	if !strings.HasPrefix(out, "run ") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "\n  sort ") || !strings.Contains(out, "rows=5") {
		t.Fatalf("render missing child line: %q", out)
	}
	if !strings.Contains(out, "open") || !strings.Contains(out, "(unfinished)") {
		t.Fatalf("render missing unfinished marker: %q", out)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty ctx span = %v", got)
	}
	var nilCtx context.Context
	if got := FromContext(nilCtx); got != nil {
		t.Fatalf("nil ctx span = %v", got)
	}
	s := NewSpan("x")
	ctx := ContextWith(context.Background(), s)
	if got := FromContext(ctx); got != s {
		t.Fatalf("FromContext = %v, want %v", got, s)
	}
	if ctx := ContextWith(nilCtx, s); FromContext(ctx) != s {
		t.Fatal("ContextWith(nil, s) lost span")
	}
}

// TestWorkerNodes: the i-th worker of every loop under a span records into
// the span's i-th worker node, created on first use even when a later
// index arrives first, and the span reports the nodes' summed duration as
// busy_ms; a span without workers reports none.
func TestWorkerNodes(t *testing.T) {
	phase := NewSpan("phase")
	for loop := 0; loop < 3; loop++ {
		var wg sync.WaitGroup
		for w := 1; w >= 0; w-- {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sp := phase.Worker(w)
				sp.AddInt("chunks", int64(w+1))
				sp.End()
			}(w)
		}
		wg.Wait()
	}
	phase.End()
	kids := phase.Children()
	if len(kids) != 2 {
		t.Fatalf("%d worker nodes after three two-worker loops, want 2:\n%s", len(kids), phase.Render())
	}
	var busy time.Duration
	for w, k := range kids {
		if k.Name() != "worker" || k.Count() != 3 || k.Attr("chunks") != strconv.Itoa(3*(w+1)) {
			t.Errorf("worker node %d: %s count=%d chunks=%s, want worker count=3 chunks=%d", w, k.Name(), k.Count(), k.Attr("chunks"), 3*(w+1))
		}
		busy += k.Duration()
	}
	if got, want := phase.Attr("busy_ms"), strconv.FormatFloat(float64(busy)/float64(time.Millisecond), 'f', 3, 64); got != want {
		t.Errorf("busy_ms = %q, want %q", got, want)
	}
	if idle := NewSpan("idle"); idle.Attr("busy_ms") != "" {
		t.Errorf("a span without workers reports busy_ms=%s", idle.Attr("busy_ms"))
	}
	var none *Span
	if none.Worker(0) != nil {
		t.Error("the disabled span opened a worker")
	}
}
