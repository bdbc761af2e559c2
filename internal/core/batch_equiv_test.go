package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/obs"
)

// The chunk collectors (batch.go) translate each row's frame into kernel
// queries and reuse the previous row's queries when they repeat. The tests
// here aim the reference comparison at a dedup that reuses a non-identical
// query; the lattice's sweeps (lattice_test.go) add chunk boundaries inside
// partitions and the tree variants the kernels specialise on.

// runPeerFrames evaluates funcs under a default RANGE frame over a
// low-cardinality ORDER BY key — every peer group shares one frame, so most
// rows repeat their predecessor's queries — requires every named kernel
// family's query and dedup counters to have moved, and checks the results
// against the reference.
func runPeerFrames(t *testing.T, seed int64, families []string, funcs []FuncSpec) {
	t.Helper()
	tab := randTable(rand.New(rand.NewSource(seed)), 160)
	// Finite fv: a NaN or ±Inf in a prefix frame hides a wrong dedup from SUM.
	for i, x := range tab.Column("fv").floats {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			tab.Column("fv").floats[i] = float64(i % 25)
		}
	}
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "g"}},
		Frame: frame.Spec{
			Mode:  frame.Range,
			Start: frame.Bound{Type: frame.UnboundedPreceding},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs:    funcs,
	}
	before := batchFamilyCounts()
	res, err := Run(tab, w, Options{TaskSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range batchFamilyCounts() {
		b := before[i]
		if !slices.Contains(families, a.Family) {
			continue
		}
		if a.Queries <= b.Queries {
			t.Errorf("family %q: run did not raise the query counter: %+v -> %+v", a.Family, b, a)
		}
		if a.DedupHits <= b.DedupHits {
			t.Errorf("family %q: peer-shared frames did not raise the dedup counter: %+v -> %+v", a.Family, b, a)
		}
	}
	for i := range w.Funcs {
		f := &w.Funcs[i]
		compareToReference(t, tab, w, f, res.Column(f.Output), f.Output)
	}
}

// familyCount is one kernel family's process-wide batch counters.
type familyCount struct {
	Family                                       string
	Queries, DedupHits, LeafQueries, DiffQueries int64
}

// batchFamilyCounts reads the per-family batch counters, in family order.
func batchFamilyCounts() []familyCount {
	out := make([]familyCount, numBatchFamilies)
	for f := range out {
		out[f] = familyCount{batchFamilyNames[f], int64(familyQueries[f].Value()), int64(familyDedupHits[f].Value()),
			int64(familyLeafQueries[f].Value()), int64(familyDiffQueries[f].Value())}
	}
	return out
}

// TestBatchEquivalenceDedupHeavy pins the adjacent-row dedup of the count,
// rank and select collectors, including the process-wide totals the metrics
// endpoint exports.
func TestBatchEquivalenceDedupHeavy(t *testing.T) {
	queries, dedup := batchQueries.Value(), batchDedupHits.Value()
	runPeerFrames(t, 778, []string{"count", "rank", "select"}, []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: Rank, Output: "rk", OrderBy: []SortKey{{Column: "g"}}},
		{Name: CumeDist, Output: "cu", OrderBy: []SortKey{{Column: "g"}}},
		{Name: FirstValue, Output: "fv", Arg: "v", OrderBy: []SortKey{{Column: "v"}}},
		{Name: PercentileCont, Output: "pc", Fraction: 0.37, OrderBy: []SortKey{{Column: "fv"}}},
	})
	if batchQueries.Value() <= queries || batchDedupHits.Value() <= dedup {
		t.Errorf("process-wide batch counters did not move: queries %v -> %v, dedup hits %v -> %v",
			queries, batchQueries.Value(), dedup, batchDedupHits.Value())
	}
}

// TestBatchEquivalenceAggRankFamilies does the same for the SUM/AVG(DISTINCT)
// collector and the DENSE_RANK collector.
func TestBatchEquivalenceAggRankFamilies(t *testing.T) {
	runPeerFrames(t, 779, []string{"agg", "rank"}, []FuncSpec{
		{Name: SumDistinct, Output: "sd", Arg: "v"},
		{Name: SumDistinct, Output: "sdf", Arg: "fv"},
		{Name: AvgDistinct, Output: "ad", Arg: "v"},
		{Name: DenseRank, Output: "dr", OrderBy: []SortKey{{Column: "v"}}},
		{Name: DenseRank, Output: "drf", OrderBy: []SortKey{{Column: "v"}}, Filter: "flt"},
	})
}

// TestLeafQueriesCounted pins what the leaf rule reports (DESIGN.md §9.1,
// §10.1): over 2,000 partitions of 130 rows, the five-function statement with
// a 60-row frame answers every count, agg and rank query from the trees'
// level 0 — leaf_queries equals batch_queries on each family's
// mst.query.batch span and in the process-wide counters — and no select query,
// since the select kernels have no leaf rule. With a 10,000-row frame every
// frame spans its whole partition, more than mst.LeafRows rows, and nothing is
// answered at the leaves.
func TestLeafQueriesCounted(t *testing.T) {
	parts := 2_000
	if testing.Short() {
		parts = 200
	}
	// 130 rows per partition, wider than mst.LeafRows, and no NULLs, so no
	// function's input shrinks below it.
	rng := rand.New(rand.NewSource(5))
	n := 130 * parts
	g, d, v := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range g {
		g[i], d[i], v[i] = int64(i%parts), rng.Int63n(1_000), rng.Int63n(40)
	}
	tab := MustNewTable(NewInt64Column("g", g, nil), NewInt64Column("d", d, nil), NewInt64Column("v", v, nil))
	for _, c := range []struct {
		name       string
		start, end frame.Bound
		narrow     bool
	}{
		{"60-row frame", frame.Bound{Type: frame.Preceding, Offset: 59}, frame.Bound{Type: frame.CurrentRow}, true},
		{"10,000-row frame", frame.Bound{Type: frame.Preceding, Offset: 5_000}, frame.Bound{Type: frame.Following, Offset: 4_999}, false},
	} {
		w := fiveFuncWindow()
		w.Frame.Start, w.Frame.End = c.start, c.end
		before := batchFamilyCounts()
		root := tracedRun(t, tab, w, Options{})
		after := batchFamilyCounts()
		spans := 0
		root.Walk(func(sp *obs.Span, _ int) {
			if sp.Name() != "mst.query.batch" {
				return
			}
			spans++
			fam, queries, leaves := sp.Attr("family"), sp.Attr("batch_queries"), sp.Attr("leaf_queries")
			want := "0"
			if c.narrow && fam != "select" {
				want = queries
			}
			if queries == "0" || leaves != want {
				t.Errorf("%s: %s span reports batch_queries=%s leaf_queries=%s, want leaf_queries=%s", c.name, fam, queries, leaves, want)
			}
		})
		if spans != len(w.Funcs) {
			t.Errorf("%s: %d mst.query.batch spans, want one per function", c.name, spans)
		}
		for i, a := range after {
			if a.Family == "leadlag" {
				continue // the statement has no LEAD/LAG
			}
			q, l := a.Queries-before[i].Queries, a.LeafQueries-before[i].LeafQueries
			want := int64(0)
			if c.narrow && a.Family != "select" {
				want = q
			}
			if q == 0 || l != want {
				t.Errorf("%s: family %q counted %d queries, %d at the leaves, want %d", c.name, a.Family, q, l, want)
			}
		}
	}
}
