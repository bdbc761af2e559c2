package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceTwoWayMerge is the merge mergeRuns replaced, kept as its oracle
// and as the baseline BenchmarkDeltaSortMerge holds it against: one
// comparator call per output row.
func referenceTwoWayMerge(runA, runB []int32, cmpRows func(a, b int) int) []int32 {
	out := make([]int32, 0, len(runA)+len(runB))
	i, j := 0, 0
	for i < len(runA) && j < len(runB) {
		a, b := runA[i], runB[j]
		if c := cmpRows(int(a), int(b)); c < 0 || (c == 0 && a < b) {
			out = append(out, a)
			i++
		} else {
			out = append(out, b)
			j++
		}
	}
	out = append(out, runA[i:]...)
	out = append(out, runB[j:]...)
	return out
}

// deltaViewOver builds a view whose merged table is merged and whose dirty
// rows are the given merged ids: every other merged row has a frozen twin,
// dirty rows are overrides of a frozen row holding something else (skipped,
// position kept) or appends (no frozen row), and deleted frozen rows are
// strewn between them. Dirty is listed in shuffled order, as slots are.
func deltaViewOver(merged *Table, dirty []int32, rng *rand.Rand) *DeltaView {
	n := merged.Rows()
	isDirty := make([]bool, n)
	for _, id := range dirty {
		isDirty[id] = true
	}
	dv := &DeltaView{Dirty: slices.Clone(dirty)}
	rng.Shuffle(len(dv.Dirty), func(i, j int) { dv.Dirty[i], dv.Dirty[j] = dv.Dirty[j], dv.Dirty[i] })
	var content []RowSpan // the merged row each frozen row copies
	frozenRow := func(src int, skip bool, mergedID int32) {
		content = append(content, RowSpan{Lo: src, Hi: src + 1})
		dv.SkipFrozen = append(dv.SkipFrozen, skip)
		dv.MergedID = append(dv.MergedID, mergedID)
	}
	for m := 0; m < n; m++ {
		if rng.Intn(5) == 0 {
			frozenRow(rng.Intn(n), true, -1) // deleted
		}
		switch {
		case !isDirty[m]:
			frozenRow(m, false, int32(m))
		case rng.Intn(2) == 0:
			frozenRow(rng.Intn(n), true, int32(m)) // overridden
		}
	}
	cols := make([]*Column, len(merged.Columns()))
	for c, col := range merged.Columns() {
		cols[c] = ConcatSpans([]*Column{col}, content)
	}
	dv.Frozen = MustNewTable(cols...)
	return dv
}

// TestDeltaSortMatchesFullSort is the differential for the delta sort
// (mergeDirty over the frozen table's sort): the frozen order walked, run B
// sorted (typed words or comparator) and placed by search must be the sort of
// the merged table, position for position — for
// every key kind (NaNs, -0.0 and NULLs included), multi-column and
// partitioned keys, a value domain small enough that most keys occur in both
// runs (the merged-id tie rule), and dirty sets from empty to the whole table.
func TestDeltaSortMatchesFullSort(t *testing.T) {
	windows := []WindowSpec{
		{OrderBy: []SortKey{{Column: "i"}}},
		{OrderBy: []SortKey{{Column: "f", Desc: true}}},
		{OrderBy: []SortKey{{Column: "f", NullsSmallest: true}}},
		{OrderBy: []SortKey{{Column: "s"}}},
		{OrderBy: []SortKey{{Column: "s", Desc: true, NullsSmallest: true}}},
		{OrderBy: []SortKey{{Column: "i", Desc: true}, {Column: "s"}}},
		{OrderBy: []SortKey{{Column: "b"}, {Column: "f"}, {Column: "i"}}},
		{PartitionBy: []string{"b"}, OrderBy: []SortKey{{Column: "f"}}},
		{PartitionBy: []string{"s"}, OrderBy: []SortKey{{Column: "i"}}},
		{PartitionBy: []string{"i", "b"}},
	}
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 50, 700} {
		codes := make([]byte, 6*n)
		for i := range codes {
			codes[i] = byte(rng.Intn(256))
		}
		merged := sortKeyTable(n, func(row, col int) byte { return codes[6*row+col] })
		for _, share := range []float64{0, 0.02, 0.5, 0.9, 1} {
			var dirty []int32
			for m := 0; m < n; m++ {
				if rng.Float64() < share {
					dirty = append(dirty, int32(m))
				}
			}
			dv := deltaViewOver(merged, dirty, rng)
			for wi := range windows {
				w := &windows[wi]
				frozen, err := windowSortIndices(dv.Frozen, w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := mergeDirty(merged, w, frozen, Options{Delta: dv})
				if err != nil {
					t.Fatal(err)
				}
				want, err := windowSortIndices(merged, w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d dirty=%d/%d window %d: delta sort differs from the full sort\n got  %v\n want %v",
						n, len(dirty), n, wi, got, want)
				}
				if ref := referenceOrder(merged, w.PartitionBy, w.OrderBy); !slices.Equal(got, ref) {
					t.Fatalf("n=%d dirty=%d/%d window %d: delta sort differs from the stable reference sort", n, len(dirty), n, wi)
				}
			}
		}
	}
}

// cleanView is the view of t with nothing dirty: t is its own frozen table.
func cleanView(t *Table) *DeltaView {
	n := t.Rows()
	dv := &DeltaView{Frozen: t, SkipFrozen: make([]bool, n), MergedID: make([]int32, n)}
	for r := range dv.MergedID {
		dv.MergedID[r] = int32(r)
	}
	return dv
}

// TestMergeDirtyCleanView: a view with no dirty row over every frozen row
// departs and renumbers nothing, so mergeDirty returns the frozen order
// itself — the cached slice, not a copy. (A view with no dirty row that
// dropped frozen rows is not clean; TestDeltaSortMatchesFullSort's share-0
// views are such views.)
func TestMergeDirtyCleanView(t *testing.T) {
	tab := randTable(rand.New(rand.NewSource(43)), 300)
	w := &WindowSpec{PartitionBy: []string{"g"}, OrderBy: []SortKey{{Column: "d"}}}
	n := tab.Rows()
	clean := cleanView(tab)
	frozen, err := windowSortIndices(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mergeDirty(tab, w, frozen, Options{Delta: clean})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || &got[0] != &frozen[0] {
		t.Fatalf("a clean view's order is a copy of the frozen order, not the order itself")
	}
}

// sortMergeRuns draws BenchmarkDeltaSortMerge's input: a table of nA+nB rows
// whose INT64 key k and STRING key s both repeat about ten times, split into
// run A and a run B of nB random rows, each in window order.
func sortMergeRuns(tb testing.TB, nA, nB int, key string) (runA, runB []int32, cmpRows func(a, b int) int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	n := nA + nB
	ints, strs := make([]int64, n), make([]string, n)
	distinct := max(n/10, 1)
	for i := range ints {
		ints[i] = int64(rng.Intn(distinct))
		strs[i] = fmt.Sprintf("key-%07d", rng.Intn(distinct))
	}
	tab := MustNewTable(NewInt64Column("k", ints, nil), NewStringColumn("s", strs, nil))
	w := &WindowSpec{OrderBy: []SortKey{{Column: key}}}
	order, err := windowSortIndices(tab, w, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	inB := make([]bool, n)
	for _, row := range rng.Perm(n)[:nB] {
		inB[row] = true
	}
	for _, row := range order {
		if inB[row] {
			runB = append(runB, row)
		} else {
			runA = append(runA, row)
		}
	}
	return runA, runB, windowComparator(tab, w)
}

// TestMergeRunsMatchesTwoWayMerge holds the search-based merge to the two-way
// merge it replaced, on the benchmark's shapes and on runs of every relative
// size, empty ones included.
func TestMergeRunsMatchesTwoWayMerge(t *testing.T) {
	for _, key := range []string{"k", "s"} {
		for _, sizes := range [][2]int{{0, 0}, {0, 40}, {40, 0}, {1, 1}, {5000, 100}, {100, 5000}, {3000, 3000}} {
			runA, runB, cmpRows := sortMergeRuns(t, sizes[0], sizes[1], key)
			got, want := mergeRuns(runA, runB, cmpRows), referenceTwoWayMerge(runA, runB, cmpRows)
			if !slices.Equal(got, want) {
				t.Fatalf("key %s, |A|=%d |B|=%d: merges differ", key, sizes[0], sizes[1])
			}
		}
	}
}

// BenchmarkDeltaSortMerge decides how run B enters run A (ROADMAP's
// keep-or-drop rule): a 200k-row run A, run B of 100 and 2,048 rows, INT64
// and STRING order keys, the search-based merge against the two-way merge.
func BenchmarkDeltaSortMerge(b *testing.B) {
	merges := []struct {
		name  string
		merge func(runA, runB []int32, cmpRows func(a, b int) int) []int32
	}{{"search", mergeRuns}, {"twoway", referenceTwoWayMerge}}
	for _, key := range []string{"k", "s"} {
		for _, nB := range []int{100, 2048} {
			runA, runB, cmpRows := sortMergeRuns(b, 200_000, nB, key)
			for _, m := range merges {
				b.Run(fmt.Sprintf("key=%s/B=%d/%s", key, nB, m.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if out := m.merge(runA, runB, cmpRows); len(out) != len(runA)+len(runB) {
							b.Fatal("short merge")
						}
					}
				})
			}
		}
	}
}
