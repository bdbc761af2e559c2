package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/treecache"
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
// their function.
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
		if sp.Attr("function") == "" || sp.Attr("partitions") != "1" {
			t.Errorf("eval span lacks function/partitions attrs: %v", sp.Attrs())
		}
	})
	if evals != 2 {
		t.Errorf("got %d eval spans, want 2 (one per function)", evals)
	}
	if byName["eval"] || byName["worker"] {
		t.Error("structural spans leaked into the phase totals")
	}
}

// spanShape renders the tree as indented names: its shape, without the
// durations and attribute values that vary from run to run.
func spanShape(root *obs.Span) string {
	var b strings.Builder
	root.Walk(func(sp *obs.Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Name())
		b.WriteByte('\n')
	})
	return b.String()
}

// singlePartitionShape is the trace of traceWindow over one partition on one
// worker, as the operator rendered it when every (partition, function) pair
// had a span of its own: the shared eval span must not change what a
// single-partition statement shows.
const singlePartitionShape = `query
  partition+order sort
  partition boundaries
  eval
    preprocess: populate hashes
    preprocess: prevIdcs
    build merge sort tree
      mst: merge level
      mst: merge level
      mst: merge level
    mst.query.batch
      probe
        worker
  eval
    build merge sort tree
      mst: merge level
      mst: merge level
      mst: merge level
    mst.query.batch
      probe
        worker
`

// designPhases is DESIGN.md §9.1's table of phase names.
var designPhases = map[string]bool{
	"partition+order sort":        true,
	"partition boundaries":        true,
	"preprocess: populate hashes": true,
	"preprocess: prevIdcs":        true,
	"build merge sort tree":       true,
	"mst.query.batch":             true,
	"probe":                       true,
}

// fiveFuncWindow is the statement shape of the many-partitions workload:
// one function per probe family over one partitioned window.
func fiveFuncWindow() *WindowSpec {
	w := traceWindow()
	w.PartitionBy = []string{"g"}
	w.Frame.Start.Offset = 3
	w.Funcs = []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: PercentileDisc, Output: "pd", Fraction: 0.5, OrderBy: []SortKey{{Column: "v"}}},
		{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
		{Name: DenseRank, Output: "dr", OrderBy: []SortKey{{Column: "v"}}},
		{Name: SumDistinct, Output: "sd", Arg: "v"},
	}
	return w
}

// partitionedTable is randTable with the group column rewritten: partition
// p holds sizeOf(p) rows.
func partitionedTable(rng *rand.Rand, parts int, sizeOf func(p int) int) *Table {
	var groups []int64
	for p := 0; p < parts; p++ {
		for i := sizeOf(p); i > 0; i-- {
			groups = append(groups, int64(p))
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	base := randTable(rng, len(groups))
	cols := []*Column{NewInt64Column("g", groups, nil)}
	for _, name := range []string{"d", "v", "fv", "s", "flt"} {
		cols = append(cols, base.Column(name))
	}
	return MustNewTable(cols...)
}

// tracedRun evaluates w over tab under a fresh root span and returns it.
func tracedRun(t *testing.T, tab *Table, w *WindowSpec, opt Options) *obs.Span {
	t.Helper()
	root := obs.NewSpan("query")
	opt.Trace = root
	if _, err := Run(tab, w, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	return root
}

func countSpans(root *obs.Span) int {
	n := 0
	root.Walk(func(*obs.Span, int) { n++ })
	return n
}

// TestRunWithoutCacheSharesStructures runs RANK and PERCENT_RANK, both
// ordered by v, over one window with no cache: the run's own cache lets the
// second function probe the first one's tree, so the trace holds exactly
// one tree build.
func TestRunWithoutCacheSharesStructures(t *testing.T) {
	w := traceWindow()
	w.Funcs = []FuncSpec{
		{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
		{Name: PercentRank, Output: "pr", OrderBy: []SortKey{{Column: "v"}}},
	}
	root := tracedRun(t, randTable(rand.New(rand.NewSource(3)), 2_000), w, Options{})
	builds := 0
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() == "build merge sort tree" {
			builds++
		}
	})
	if builds != 1 {
		t.Errorf("%d build merge sort tree entries, want 1\n%s", builds, root.Render())
	}
}

// TestSpanCountIndependentOfPartitions is the span budget: a trace grows
// with the statement, not with the table. The same five-function statement
// over 1 and over 2,000 equally sized partitions produces the same number of
// spans, a skewed 2,000-partition table still renders in well under 200
// lines, only documented phases are totalled, and a single-partition
// statement keeps the tree it always had.
func TestSpanCountIndependentOfPartitions(t *testing.T) {
	w := fiveFuncWindow()
	uniform := func(int) int { return 8 }
	one := tracedRun(t, partitionedTable(rand.New(rand.NewSource(1)), 1, uniform), w, Options{})
	many := tracedRun(t, partitionedTable(rand.New(rand.NewSource(1)), 2_000, uniform), w, Options{})
	if a, b := countSpans(one), countSpans(many); a != b {
		t.Errorf("1 partition traces %d spans, 2,000 partitions %d: the trace must not grow with the partition count\n%s", a, b, many.Render())
	}
	if got, want := spanShape(many), spanShape(one); got != want {
		t.Errorf("2,000 equal partitions render a different tree than one:\n%s\nwant\n%s", got, want)
	}
	many.Walk(func(sp *obs.Span, _ int) {
		if !sp.Ended() {
			t.Errorf("span %q not ended after Run", sp.Name())
		}
		if sp.Name() != "eval" {
			return
		}
		if sp.Attr("partitions") != "2000" || sp.Attr("rows") != "16000" || sp.Count() != 2_000 {
			t.Errorf("eval span of %s: partitions=%s rows=%s entered %d times, want 2000 / 16000 / 2000",
				sp.Attr("function"), sp.Attr("partitions"), sp.Attr("rows"), sp.Count())
		}
	})

	// Skewed sizes align deeper trees and parallel probes of the large
	// partitions into the same few nodes.
	skewed := tracedRun(t, partitionedTable(rand.New(rand.NewSource(2)), 2_000, func(p int) int {
		if p%500 == 0 {
			return 3_000
		}
		return 1 + p%40
	}), w, Options{TaskSize: 512, Cache: treecache.New(0), CacheScope: "spans@v1"})
	if lines := strings.Count(skewed.Render(), "\n"); lines >= 200 {
		t.Errorf("a 2,000-partition trace renders %d lines, want under 200", lines)
	}
	for _, ph := range skewed.PhaseTotals() {
		if !designPhases[ph.Name] {
			t.Errorf("phase %q is totalled but not in DESIGN.md §9.1's table", ph.Name)
		}
	}
	skewed.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() == "eval" && sp.Attr("cache_builds") != "2000" {
			t.Errorf("eval span of %s counts cache_builds=%q over a cold cache, want one per partition", sp.Attr("function"), sp.Attr("cache_builds"))
		}
	})

	single := tracedRun(t, randTable(rand.New(rand.NewSource(7)), 5_000), traceWindow(), Options{TaskSize: 512, Context: parallel.ContextWithLimit(context.Background(), 1)})
	if got := spanShape(single); got != singlePartitionShape {
		t.Errorf("single-partition trace changed shape:\n%s\nwant\n%s", got, singlePartitionShape)
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
	fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
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
		distinctCountChunk(p, fl, fc, tree, prev, next, out, agg, row, row+chunkRows)
		row = (row + chunkRows) % n
	})
	if allocs > 8 {
		t.Fatalf("warm probe path allocates %.1f objects per %d-row chunk with tracing disabled, want a handful of pool headers", allocs, chunkRows)
	}
}
