package core

import (
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
)

// traceWindow is a two-function window (a merge-sort-tree distinct count
// and a rank) that exercises the preprocess, build and probe phases.
func traceWindow() *WindowSpec {
	return &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 50},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "v"},
			{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
		},
	}
}

// TestRunTraceInvariants runs a traced query and checks the structural
// contract of the span tree: every span ended, no child outlasting its
// parent, the documented phases present, and eval spans labelled with
// function and engine.
func TestRunTraceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randTable(rng, 5_000)
	root := obs.NewSpan("query")
	if _, err := Run(tab, traceWindow(), Options{Trace: root, TaskSize: 512}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := 0
	root.Walk(func(sp *obs.Span, depth int) {
		spans++
		if !sp.Ended() {
			t.Errorf("span %q (depth %d) not ended after Run", sp.Name(), depth)
		}
	})
	if spans < 5 {
		t.Fatalf("trace has only %d spans", spans)
	}

	// Child durations never exceed the parent's: children start after and
	// end before their parent on the monotonic clock.
	var check func(parent *obs.Span)
	check = func(parent *obs.Span) {
		for _, child := range parent.Children() {
			if child.Duration() > parent.Duration() {
				t.Errorf("child %q (%v) outlasts parent %q (%v)",
					child.Name(), child.Duration(), parent.Name(), parent.Duration())
			}
			check(child)
		}
	}
	check(root)

	// The phases DESIGN.md §9 documents for this query shape.
	totals := root.PhaseTotals()
	byName := map[string]bool{}
	for _, ph := range totals {
		byName[ph.Name] = true
	}
	for _, want := range []string{
		"partition+order sort",
		"partition boundaries",
		"preprocess: populate hashes",
		"preprocess: sort hashes",
		"preprocess: prevIdcs",
		"build merge sort tree",
		"probe",
	} {
		if !byName[want] {
			t.Errorf("phase %q missing from totals %v", want, totals)
		}
	}

	// Structural spans carry their labels but stay out of the phase totals.
	evals := 0
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "eval" {
			return
		}
		evals++
		if sp.IsPhase() {
			t.Error("eval spans must be structural, not phases")
		}
		if sp.Attr("function") == "" || sp.Attr("engine") == "" {
			t.Errorf("eval span lacks function/engine attrs: %v", sp.Attrs())
		}
	})
	if evals != 2 {
		t.Errorf("got %d eval spans, want 2 (one per function)", evals)
	}
	if byName["eval"] || byName["worker"] {
		t.Error("structural spans leaked into the phase totals")
	}
}

// TestProbeZeroAllocWithoutTrace guards the acceptance bar: with tracing
// disabled (a nil span everywhere), the warm probe path allocates nothing
// per row — a chunk's only allocations are the slice headers its pooled
// scratch buffers are returned under.
func TestProbeZeroAllocWithoutTrace(t *testing.T) {
	const n = 4_096
	f := &FuncSpec{Name: CountDistinct, Output: "x", Arg: "v"}
	p, fc := benchPartition(t, n, f)
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], f.Arg, opt)
	prev, next, err := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mst.Build(prev, opt.Tree)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutBuilder(f.Output, Int64, n)
	agg := &batchAgg{}
	const chunkRows = 512
	row := 0
	allocs := testing.AllocsPerRun(50, func() {
		distinctCountChunk(p, fl, fc, tree, prev, next, out, opt, agg, row, row+chunkRows)
		row = (row + chunkRows) % n
	})
	if allocs > 8 {
		t.Fatalf("warm probe path allocates %.1f objects per %d-row chunk with tracing disabled, want a handful of pool headers", allocs, chunkRows)
	}
}
