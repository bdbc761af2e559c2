package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
)

// TestReferenceDifferentialCounts runs the functions whose queries the count
// kernel can answer from their predecessor (mst count_diff.go) —
// COUNT(DISTINCT), RANK, CUME_DIST and NTILE, plain and FILTERed, ordered by
// the window's own key (thresholds that slide) and by an unrelated one
// (thresholds that jump) — through checkDifferentialReference.
func TestReferenceDifferentialCounts(t *testing.T) {
	ordD, ordV := []SortKey{{Column: "d"}}, []SortKey{{Column: "v"}}
	checkDifferentialReference(t, []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: CountDistinct, Output: "cdf", Arg: "v", Filter: "flt"},
		{Name: Rank, Output: "rk", OrderBy: ordD},
		{Name: Rank, Output: "rkf", OrderBy: ordV, Filter: "flt"},
		{Name: CumeDist, Output: "cu", OrderBy: ordD},
		{Name: CumeDist, Output: "cuv", OrderBy: ordV},
		{Name: Ntile, Output: "nt", N: 4, OrderBy: ordD},
		{Name: Ntile, Output: "ntf", N: 3, OrderBy: ordV, Filter: "flt"},
	}, "count", "rank")
}

// TestReferenceDifferentialSelects runs the functions whose queries the
// select kernel can answer from their predecessor (mst select_diff.go) —
// PERCENTILE_DISC, PERCENTILE_CONT (whose interpolation pairs are back-to-back
// queries), NTH_VALUE, FIRST_VALUE and LAST_VALUE, plain and FILTERed, over
// the nullable v — through checkDifferentialReference.
func TestReferenceDifferentialSelects(t *testing.T) {
	ordV, ordFV := []SortKey{{Column: "v"}}, []SortKey{{Column: "fv"}}
	checkDifferentialReference(t, []FuncSpec{
		{Name: PercentileDisc, Output: "pd", Fraction: 0.3, OrderBy: ordV},
		{Name: PercentileDisc, Output: "pdf", Fraction: 0.9, OrderBy: ordV, Filter: "flt"},
		{Name: PercentileCont, Output: "pc", Fraction: 0.45, OrderBy: ordFV},
		{Name: PercentileCont, Output: "pcf", Fraction: 0.5, OrderBy: ordV, Filter: "flt"},
		{Name: NthValue, Output: "nv", Arg: "v", N: 3, OrderBy: ordFV, IgnoreNulls: true},
		{Name: NthValue, Output: "nvf", Arg: "v", N: 40, OrderBy: ordV, Filter: "flt"},
		{Name: FirstValue, Output: "fvl", Arg: "v", OrderBy: ordFV, IgnoreNulls: true},
		{Name: LastValue, Output: "lvf", Arg: "v", OrderBy: ordFV, Filter: "flt"},
	}, "select")
}

// checkDifferentialReference runs funcs over ROWS, RANGE and GROUPS frames
// wider than mst.LeafRows, each under an EXCLUDE mode, with the kernels'
// cutoff at its default and at 0, which sends every query through the
// descent. Every answer must match the reference, and each of families must
// report differential answers exactly when the cutoff is on.
func checkDifferentialReference(t *testing.T, funcs []FuncSpec, families ...string) {
	t.Helper()
	tab := leafCutoffTable(2, 600) // d: 100 tied values, ~6 rows each
	bound := func(typ frame.BoundType, off int64) frame.Bound { return frame.Bound{Type: typ, Offset: off} }
	frames := []frame.Spec{
		{Mode: frame.Rows, Start: bound(frame.Preceding, 200), End: bound(frame.CurrentRow, 0)},
		{Mode: frame.Rows, Start: bound(frame.Preceding, 150), End: bound(frame.Following, 150), Exclude: frame.ExcludeCurrentRow},
		{Mode: frame.Range, Start: bound(frame.Preceding, 30), End: bound(frame.Following, 10), Exclude: frame.ExcludeTies},
		{Mode: frame.Groups, Start: bound(frame.Preceding, 25), End: bound(frame.Following, 5), Exclude: frame.ExcludeGroup},
	}
	if testing.Short() {
		frames = frames[:2]
	}
	for _, cutoff := range []int{mst.LeafRows, 0} {
		for fi, fs := range frames {
			w := leafCutoffWindow(fs, funcs)
			before := batchFamilyCounts()
			prev := mst.SetLeafRows(cutoff)
			res, err := Run(tab, w, Options{TaskSize: 256})
			mst.SetLeafRows(prev)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.Funcs {
				f := &w.Funcs[i]
				compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("cutoff %d frame %d %s", cutoff, fi, f.Output))
			}
			for i, a := range batchFamilyCounts() {
				if !slices.Contains(families, a.Family) {
					continue
				}
				if diffs := a.DiffQueries - before[i].DiffQueries; (diffs > 0) != (cutoff > 0) {
					t.Errorf("cutoff %d frame %d: family %s answered %d queries from their predecessor", cutoff, fi, a.Family, diffs)
				}
			}
		}
	}
}

// TestDiffQueriesCounted pins what the differential passes report on the
// mst.query.batch span (diff_queries) and in the process-wide counters, on one
// 30,000-row partition under ROWS 9999 PRECEDING: COUNT(DISTINCT)'s frame
// and threshold slide by one row, and so does the median's value range on
// the permutation tree, so at least 99 % of their queries are answered from
// their predecessor. So are LEAD's under a function order that reverses the
// window order: its row-number count's frame range and threshold and the
// select's value range all slide by one row. RANK over a column unrelated
// to the window order jumps its threshold between rows, so at most 2 % are.
func TestDiffQueriesCounted(t *testing.T) {
	const n = 30_000
	rng := rand.New(rand.NewSource(17))
	d, c, v := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range d {
		d[i], c[i], v[i] = int64(i), rng.Int63n(500), rng.Int63n(1_000_000)
	}
	tab := MustNewTable(NewInt64Column("d", d, nil), NewInt64Column("c", c, nil), NewInt64Column("v", v, nil))
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 9_999},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "c"},
			{Name: Rank, Output: "rk", OrderBy: []SortKey{{Column: "v"}}},
			{Name: PercentileDisc, Output: "med", Fraction: 0.5, OrderBy: []SortKey{{Column: "v"}}},
			{Name: Lead, Output: "ld", Arg: "v", OrderBy: []SortKey{{Column: "d", Desc: true}}},
		},
	}
	before := batchFamilyCounts()
	root := tracedRun(t, tab, w, Options{})
	after := batchFamilyCounts()
	within := func(fam string, queries, diffs int64) bool {
		if fam == "rank" {
			return queries > 0 && diffs*100 <= queries*2
		}
		return queries > 0 && diffs*100 >= queries*99
	}
	spans := 0
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "mst.query.batch" {
			return
		}
		spans++
		fam := sp.Attr("family")
		queries, _ := strconv.ParseInt(sp.Attr("batch_queries"), 10, 64)
		diffs, err := strconv.ParseInt(sp.Attr("diff_queries"), 10, 64)
		if err != nil || !within(fam, queries, diffs) {
			t.Errorf("%s span: batch_queries=%d diff_queries=%q", fam, queries, sp.Attr("diff_queries"))
		}
	})
	if spans != 4 {
		t.Errorf("%d mst.query.batch spans, want 4", spans)
	}
	for i, a := range after {
		if a.Family == "agg" {
			continue
		}
		if q, df := a.Queries-before[i].Queries, a.DiffQueries-before[i].DiffQueries; !within(a.Family, q, df) {
			t.Errorf("family %s: %d queries, %d answered from their predecessor", a.Family, q, df)
		}
	}
}

// TestReferenceSlidingForm runs COUNT(DISTINCT), plain and FILTERed, over
// ROWS frames narrower than, as wide as and wider than the probe chunk, so
// the tree is built sliding (mst.Sliding, w=slide) for the first two and in
// full (w=full) for the third: under every EXCLUDE mode, partitioned and
// not, with the kernels' cutoff at its default and at 0, where every query
// of a sliding tree is an anchor scanning level 0. The FILTER drops runs of
// 320 rows, longer than any frame, so frames empty out and the first query
// after each run is an anchor at the default cutoff too. Every answer must
// match the reference. Then one cache serves a sliding and a full frame in
// both orders: each statement must build its own class beside the other's
// and read only its own.
func TestReferenceSlidingForm(t *testing.T) {
	const parts, rows, task = 2, 800, 256
	rng := rand.New(rand.NewSource(38))
	n := parts * rows
	g, d, v := make([]int64, n), make([]int64, n), make([]int64, n)
	vNull, flt := make([]bool, n), make([]bool, n)
	for i := range g {
		j := i / parts // the row's position in its partition
		g[i], d[i], v[i] = int64(i%parts), int64(j/4), rng.Int63n(60)
		vNull[i] = rng.Intn(10) == 0
		flt[i] = j/320%3 != 1 && rng.Intn(5) != 0
	}
	tab := MustNewTable(NewInt64Column("g", g, nil), NewInt64Column("d", d, nil),
		NewInt64Column("v", v, vNull), NewBoolColumn("flt", flt, nil))
	funcs := []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: CountDistinct, Output: "cdf", Arg: "v", Filter: "flt"},
	}
	bound := func(typ frame.BoundType, off int64) frame.Bound { return frame.Bound{Type: typ, Offset: off} }
	frames := []struct {
		spec  frame.Spec
		class string
	}{
		{frame.Spec{Mode: frame.Rows, Start: bound(frame.Preceding, 200), End: bound(frame.CurrentRow, 0)}, "w=slide"},
		{frame.Spec{Mode: frame.Rows, Start: bound(frame.Preceding, 128), End: bound(frame.Following, 127)}, "w=slide"},
		{frame.Spec{Mode: frame.Rows, Start: bound(frame.Preceding, 300), End: bound(frame.CurrentRow, 0)}, "w=full"},
	}
	excludes := []frame.Exclusion{frame.ExcludeNoOthers, frame.ExcludeCurrentRow, frame.ExcludeGroup, frame.ExcludeTies}
	if testing.Short() {
		excludes = excludes[:2]
	}
	window := func(fs frame.Spec, partitioned bool) *WindowSpec {
		w := leafCutoffWindow(fs, funcs)
		if !partitioned {
			w.PartitionBy = nil
		}
		return w
	}
	// classes returns the width classes of the count structures cache built.
	classes := func(cache *recordingCache) map[string]bool {
		got := map[string]bool{}
		for key := range cache.built {
			for _, class := range []string{"w=leaf", "w=slide", "w=full"} {
				if strings.Contains(key, "|distinct-count|") && strings.Contains(key, class) {
					got[class] = true
				}
			}
		}
		return got
	}
	// The reference is the slow part: it checks the answers at the default
	// cutoff, and those at cutoff 0 must carry the same bits.
	for _, partitioned := range []bool{true, false} {
		for fi, fr := range frames {
			for _, ex := range excludes {
				fs := fr.spec
				fs.Exclude = ex
				w := window(fs, partitioned)
				var res [2]*Result
				for c, cutoff := range []int{mst.LeafRows, 0} {
					cache := newRecordingCache()
					prev := mst.SetLeafRows(cutoff)
					r, err := Run(tab, w, Options{TaskSize: task, Cache: cache, CacheScope: "slide@v1"})
					mst.SetLeafRows(prev)
					if err != nil {
						t.Fatal(err)
					}
					res[c] = r
					if got := classes(cache); len(got) != 1 || !got[fr.class] {
						t.Errorf("cutoff %d partitioned=%v frame %d ex%d: count structures built in classes %v, want %s", cutoff, partitioned, fi, ex, got, fr.class)
					}
				}
				label := fmt.Sprintf("partitioned=%v frame %d ex%d", partitioned, fi, ex)
				for i := range w.Funcs {
					f := &w.Funcs[i]
					compareToReference(t, tab, w, f, res[0].Column(f.Output), label+" "+f.Output)
					requireIdentical(t, label+" cutoff 0 "+f.Output, res[1].Column(f.Output), res[0].Column(f.Output))
				}
			}
		}
	}

	slide, full := frames[0].spec, frames[2].spec
	for _, cutoff := range []int{mst.LeafRows, 0} {
		for _, order := range [][2]frame.Spec{{slide, full}, {full, slide}} {
			cache := newRecordingCache()
			label := fmt.Sprintf("cutoff %d, %d then %d PRECEDING", cutoff, order[0].Start.Offset, order[1].Start.Offset)
			prev := mst.SetLeafRows(cutoff)
			for _, fs := range order {
				w := window(fs, true)
				res, err := Run(tab, w, Options{TaskSize: task, Cache: cache, CacheScope: "slide-full@v1"})
				if err != nil {
					mst.SetLeafRows(prev)
					t.Fatalf("%s: %v", label, err)
				}
				for i := range w.Funcs {
					f := &w.Funcs[i]
					compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("%s, %d PRECEDING %s", label, fs.Start.Offset, f.Output))
				}
			}
			mst.SetLeafRows(prev)
			// Two count structures per partition — plain and FILTERed — in
			// each class.
			if s, f := cache.resident("w=slide", "|distinct-count|"), cache.resident("w=full", "|distinct-count|"); s != 2*parts || f != 2*parts {
				t.Errorf("%s: the cache holds %d sliding and %d full count structures, want %d each", label, s, f, 2*parts)
			}
		}
	}
}
