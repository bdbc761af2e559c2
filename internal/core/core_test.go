package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/oracle"
)

// randTable builds a table with every column kind, NULLs included, from
// the oracle's column builders.
func randTable(rng *rand.Rand, n int) *Table {
	g := oracle.Gen{Rng: rng, N: n}
	return fromOracle(g.Ints("g", 3, 0), g.Ints("d", 40, 15), g.Ints("v", 12, 10),
		g.Floats("fv", 10), g.Strings("s", 6, 12), g.Bools("flt", 20))
}

// fromOracle, oracleColumn and toOracle are the test adapter between core's
// tables and specs and the oracle's plain ones. Columns share their slices.
func fromOracle(cols ...oracle.Column) *Table {
	out := make([]*Column, len(cols))
	for i, c := range cols {
		out[i] = &Column{name: c.Name, kind: Kind(slices.Index(oracleKinds[:], c.Kind)), ints: c.Ints, floats: c.Floats, strs: c.Strs, bools: c.Bools, nulls: nullMask(c.Nulls)}
		oracleColumn(out[i]) // panics on an oracle kind core lacks
	}
	return MustNewTable(out...)
}

// oracleKinds is the oracle's kind for each core Kind, paired by name, not
// by the order of the two enums.
var oracleKinds = [...]oracle.Kind{Int64: oracle.Int64, Float64: oracle.Float64, String: oracle.String, Bool: oracle.Bool}

func oracleColumn(c *Column) oracle.Column {
	if k := int(c.kind); k < 0 || k >= len(oracleKinds) || slices.Index(oracleKinds[:], oracleKinds[k]) != k {
		panic(fmt.Sprintf("column %q: kind %v has no oracle kind", c.name, c.kind))
	}
	return oracle.Column{Name: c.name, Kind: oracleKinds[c.kind], Ints: c.ints, Floats: c.floats, Strs: c.strs, Bools: c.bools, Nulls: c.nulls}
}

func toOracle(tab *Table, w *WindowSpec, f *FuncSpec) (oracle.Table, oracle.Window, oracle.Func) {
	var cols oracle.Table
	for _, c := range tab.Columns() {
		cols = append(cols, oracleColumn(c))
	}
	keys := func(ks []SortKey) (out []oracle.SortKey) {
		for _, k := range ks {
			out = append(out, oracle.SortKey(k))
		}
		return out
	}
	ow := oracle.Window{PartitionBy: w.PartitionBy, OrderBy: keys(w.OrderBy)}
	if w.FrameSet {
		ow.Frame = &w.Frame
	}
	return cols, ow, oracle.Func{Name: f.Name.String(), Arg: f.Arg, OrderBy: keys(f.OrderBy), Fraction: f.Fraction,
		N: f.N, Filter: f.Filter, IgnoreNulls: f.IgnoreNulls, Frame: f.Frame}
}

// compareToReference checks every row of out against the oracle.
func compareToReference(t *testing.T, tab *Table, w *WindowSpec, f *FuncSpec, out *Column, label string) {
	t.Helper()
	res := oracleColumn(out)
	for row, want := range oracle.Eval(toOracle(tab, w, f)) {
		got := res.Value(row)
		if !oracle.Identical(got, want) {
			t.Fatalf("%s row %d: got %+v, want %+v", label, row, got, want)
		}
	}
}

// requireIdentical requires two result columns to agree bit for bit.
func requireIdentical(t *testing.T, label string, got, want *Column) {
	t.Helper()
	g, w := oracleColumn(got), oracleColumn(want)
	for row := range max(got.Len(), want.Len()) {
		if row >= min(got.Len(), want.Len()) || !oracle.Identical(g.Value(row), w.Value(row)) {
			t.Fatalf("%s: columns of %d and %d rows differ at row %d", label, got.Len(), want.Len(), row)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	tab := randTable(rand.New(rand.NewSource(1)), 5)
	cases := []WindowSpec{
		{Funcs: nil},
		{Funcs: []FuncSpec{{Name: Sum, Output: "x", Arg: "nope"}}},
		{Funcs: []FuncSpec{{Name: Sum, Output: "", Arg: "v"}}},
		{Funcs: []FuncSpec{{Name: Sum, Output: "x", Arg: "s"}}},
		{Funcs: []FuncSpec{{Name: Rank, Output: "x"}}}, // no order at all
		{Funcs: []FuncSpec{{Name: PercentileDisc, Output: "x", Fraction: 1.5, OrderBy: []SortKey{{Column: "v"}}}}},
		{Funcs: []FuncSpec{{Name: Ntile, Output: "x", N: 0, OrderBy: []SortKey{{Column: "v"}}}}},
		{Funcs: []FuncSpec{{Name: PercentileCont, Output: "x", Fraction: 0.5, OrderBy: []SortKey{{Column: "s"}}}}}, // string interpolation

		{Funcs: []FuncSpec{{Name: Sum, Output: "x", Arg: "v", Filter: "v"}}}, // non-bool filter
		{Funcs: []FuncSpec{{Name: Sum, Output: "x", Arg: "v"}, {Name: Count, Output: "x", Arg: "v"}}},
		{PartitionBy: []string{"nope"}, Funcs: []FuncSpec{{Name: CountStar, Output: "x"}}},
		{OrderBy: []SortKey{{Column: "nope"}}, Funcs: []FuncSpec{{Name: CountStar, Output: "x"}}},
		{ // RANGE over a float column
			OrderBy:  []SortKey{{Column: "fv"}},
			Frame:    frame.Spec{Mode: frame.Range, Start: frame.Bound{Type: frame.Preceding, Offset: 1}, End: frame.Bound{Type: frame.CurrentRow}},
			FrameSet: true,
			Funcs:    []FuncSpec{{Name: CountStar, Output: "x"}},
		},
	}
	for i, w := range cases {
		w := w
		if _, err := Run(tab, &w, Options{}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDefaultFrames(t *testing.T) {
	// With ORDER BY: RANGE UNBOUNDED PRECEDING..CURRENT ROW (peers included).
	tab := MustNewTable(
		NewInt64Column("d", []int64{1, 2, 2, 3}, nil),
		NewInt64Column("v", []int64{10, 20, 30, 40}, nil),
	)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Funcs:   []FuncSpec{{Name: Sum, Output: "s", Arg: "v"}},
	}
	res, err := Run(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 60, 60, 100} // peers at d=2 share the frame end
	for i, wv := range want {
		if got := res.Column("s").Int64(i); got != wv {
			t.Fatalf("row %d: sum %d, want %d", i, got, wv)
		}
	}
	// Without ORDER BY: whole partition.
	w2 := &WindowSpec{Funcs: []FuncSpec{{Name: Sum, Output: "s", Arg: "v"}}}
	res2, err := Run(tab, w2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := res2.Column("s").Int64(i); got != 100 {
			t.Fatalf("row %d: whole-partition sum %d, want 100", i, got)
		}
	}
}

// TestReferenceAcrossLeafCutoff straddles the kernels' leaf rule: a frame of
// at most mst.LeafRows rows is answered from a tree's level 0, a wider one by
// the descent. core cannot turn the leaf path off, so the data crosses the
// cutoff instead — two 300-row partitions, ROWS frames of 127, 128, 129 and
// 250 rows, each plain and under EXCLUDE CURRENT ROW, GROUP and TIES (the
// ORDER BY key has ties), over COUNT/SUM(DISTINCT), RANK and DENSE_RANK —
// on NULL-free arguments, whose filtered frames are exactly those widths, and
// with FILTER and NULL arguments — and an int64 SUM(DISTINCT) whose sums
// overflow and wrap. Every answer must be identical to the reference's,
// float SUM/AVG(DISTINCT) over values of twelve magnitudes included. -short
// keeps the three widths at the cutoff, plain and EXCLUDE CURRENT ROW.
//
// The frame width also picks the structures' form: a statement whose frames
// span at most mst.LeafRows rows builds them leaf-only. One structure cache
// therefore serves a 127 PRECEDING statement and then a wider one, and the
// same pair in the reverse order: every answer must still match, and the
// cache must hold both width classes. A RANGE frame has no width bound, so
// there a partition of 128 rows goes leaf-only and one of 129 does not.
func TestReferenceAcrossLeafCutoff(t *testing.T) {
	tab := leafCutoffTable(2, 300)
	funcs := leafCutoffFuncs()
	widths := []int{mst.LeafRows - 1, mst.LeafRows, mst.LeafRows + 1, 250}
	excludes := []frame.Exclusion{frame.ExcludeNoOthers, frame.ExcludeCurrentRow, frame.ExcludeGroup, frame.ExcludeTies}
	if testing.Short() {
		widths, excludes = widths[:3], excludes[:2]
	}
	for _, width := range widths {
		for _, ex := range excludes {
			w := leafCutoffWindow(rowsFrame(width-1, ex), funcs)
			res, err := Run(tab, w, Options{TaskSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.Funcs {
				f := &w.Funcs[i]
				compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("%d-row frame ex%d %s", width, ex, f.Output))
			}
		}
	}

	narrow := rowsFrame(mst.LeafRows-1, frame.ExcludeNoOthers)
	for _, wider := range []int{mst.LeafRows, mst.LeafRows + 1, 250} {
		wide := rowsFrame(wider, frame.ExcludeNoOthers)
		for _, order := range [][2]frame.Spec{{narrow, wide}, {wide, narrow}} {
			cache := newRecordingCache()
			label := fmt.Sprintf("%d then %d PRECEDING", order[0].Start.Offset, order[1].Start.Offset)
			for _, fs := range order {
				w := leafCutoffWindow(fs, funcs)
				res, err := Run(tab, w, Options{TaskSize: 64, Cache: cache, CacheScope: "cutoff@v1"})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i := range w.Funcs {
					f := &w.Funcs[i]
					compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("%s, %d PRECEDING %s", label, fs.Start.Offset, f.Output))
				}
			}
			// Per partition, nine structures are width-bound — COUNT and
			// int64 SUM(DISTINCT), RANK and DENSE_RANK, each plain and
			// FILTERed, and the one tree the float SUM/AVG(DISTINCT)
			// share — and each class holds all nine.
			tags := []string{"|distinct-count|", "|distinct-agg|", "|rank-", "|dense|"}
			if leaf, full := cache.resident("w=leaf", tags...), cache.resident("w=full", tags...); leaf != 2*9 || full != 2*9 {
				t.Errorf("%s: the cache holds %d leaf-only and %d full structures, want %d and %d", label, leaf, full, 2*9, 2*9)
			}
		}
	}

	for _, rows := range []int{mst.LeafRows, mst.LeafRows + 1} {
		tab := leafCutoffTable(2, rows)
		rangeFrame := frame.Spec{
			Mode:  frame.Range,
			Start: frame.Bound{Type: frame.Preceding, Offset: 30},
			End:   frame.Bound{Type: frame.Following, Offset: 5},
		}
		w := leafCutoffWindow(rangeFrame, funcs)
		cache := newRecordingCache()
		res, err := Run(tab, w, Options{TaskSize: 64, Cache: cache, CacheScope: "range@v1"})
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Funcs {
			f := &w.Funcs[i]
			compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("RANGE frame over %d-row partitions %s", rows, f.Output))
		}
		// The FILTERed RANK keeps about 3/4 of its rows, ≤ 128 either way;
		// the plain one goes full at 129.
		wantLeaf, wantFull := 2*2, 0
		if rows > mst.LeafRows {
			wantLeaf, wantFull = 2, 2
		}
		if leaf, full := cache.resident("w=leaf", "|rank-"), cache.resident("w=full", "|rank-"); leaf != wantLeaf || full != wantFull {
			t.Errorf("RANGE frame over %d-row partitions: %d leaf-only and %d full RANK trees, want %d and %d", rows, leaf, full, wantLeaf, wantFull)
		}
	}
}

// leafCutoffTable is TestReferenceAcrossLeafCutoff's data: parts partitions
// of rows rows each (g), a tied ORDER BY key d, an int64 argument v with
// NULLs, int64 values big whose sums wrap, float values fv and a FILTER
// column flt.
func leafCutoffTable(parts, rows int) *Table {
	rng := rand.New(rand.NewSource(128))
	n := parts * rows
	g, d := make([]int64, n), make([]int64, n)
	v, big := make([]int64, n), make([]int64, n)
	vNull, flt := make([]bool, n), make([]bool, n)
	fv := make([]float64, n)
	for i := range g {
		g[i], d[i], v[i] = int64(i%parts), rng.Int63n(100), rng.Int63n(60)
		vNull[i] = rng.Intn(10) == 0
		big[i] = math.MaxInt64 - rng.Int63n(50)
		if rng.Intn(2) == 0 {
			big[i] = math.MinInt64 + rng.Int63n(50)
		}
		flt[i] = rng.Intn(4) != 0
		fv[i] = float64(1+rng.Intn(7)) * math.Pow(10, float64(rng.Intn(12)-6))
	}
	return MustNewTable(
		NewInt64Column("g", g, nil), NewInt64Column("d", d, nil),
		NewInt64Column("v", v, vNull), NewInt64Column("big", big, nil),
		NewFloat64Column("fv", fv, nil), NewBoolColumn("flt", flt, nil))
}

// leafCutoffFuncs are the functions TestReferenceAcrossLeafCutoff checks.
func leafCutoffFuncs() []FuncSpec {
	ordV := []SortKey{{Column: "v"}}
	return []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "d"},
		{Name: CountDistinct, Output: "cdv", Arg: "v", Filter: "flt"},
		{Name: SumDistinct, Output: "sdw", Arg: "big"},
		{Name: SumDistinct, Output: "sdv", Arg: "v", Filter: "flt"},
		{Name: Rank, Output: "rk", OrderBy: ordV},
		{Name: Rank, Output: "rkf", OrderBy: ordV, Filter: "flt"},
		{Name: DenseRank, Output: "dr", OrderBy: ordV},
		{Name: DenseRank, Output: "drf", OrderBy: ordV, Filter: "flt"},
		{Name: SumDistinct, Output: "sdf", Arg: "fv"},
		{Name: AvgDistinct, Output: "adf", Arg: "fv"},
	}
}

// rowsFrame is ROWS BETWEEN preceding PRECEDING AND CURRENT ROW under ex.
func rowsFrame(preceding int, ex frame.Exclusion) frame.Spec {
	return frame.Spec{
		Mode:    frame.Rows,
		Start:   frame.Bound{Type: frame.Preceding, Offset: int64(preceding)},
		End:     frame.Bound{Type: frame.CurrentRow},
		Exclude: ex,
	}
}

// leafCutoffWindow partitions by g and orders by d under fs.
func leafCutoffWindow(fs frame.Spec, funcs []FuncSpec) *WindowSpec {
	return &WindowSpec{
		PartitionBy: []string{"g"},
		OrderBy:     []SortKey{{Column: "d"}},
		Frame:       fs,
		FrameSet:    true,
		Funcs:       funcs,
	}
}

// TestReferenceLeadLag runs LEAD and LAG (leadLagChunk) against the reference
// on partitions wider than mst.LeafRows — two of 300 rows, then one of 2,000
// — so their count queries take the leaf rule, the differential pass and the
// descent, and their select queries the walk and the descent. The function
// ORDER BY is the window's own key d, its reverse, and the unrelated v with
// NULLs; the offset N runs 0–3 (0 is the default, 1); IGNORE NULLS and FILTER
// vary with it; the ROWS frame is plain and under EXCLUDE CURRENT ROW, GROUP
// and TIES on the small partitions, under EXCLUDE CURRENT ROW on the large
// one (-short skips it; the reference is quadratic in it). TaskSize 64 puts chunk boundaries inside partitions, and every
// statement runs with the kernels' cutoff at its default and at 0, which
// sends every query through the descent.
func TestReferenceLeadLag(t *testing.T) {
	var funcs []FuncSpec
	orders := [][]SortKey{{{Column: "d"}}, {{Column: "d", Desc: true}}, {{Column: "v"}}}
	for oi, ord := range orders {
		for _, name := range []FuncName{Lead, Lag} {
			for n := int64(0); n <= 3; n++ {
				f := FuncSpec{Name: name, Output: fmt.Sprintf("%v%d_%d", name, oi, n), Arg: "v", N: n, OrderBy: ord, IgnoreNulls: n%2 == 1}
				if (int(n)+oi)%3 == 0 {
					f.Filter = "flt"
				}
				funcs = append(funcs, f)
			}
		}
	}
	excludes := []frame.Exclusion{frame.ExcludeNoOthers, frame.ExcludeCurrentRow, frame.ExcludeGroup, frame.ExcludeTies}
	for _, c := range []struct {
		parts, rows int
		excludes    []frame.Exclusion
	}{{2, 300, excludes}, {1, 2_000, excludes[1:2]}} {
		if testing.Short() && c.rows > 300 {
			continue
		}
		tab := leafCutoffTable(c.parts, c.rows)
		for _, ex := range c.excludes {
			fs := frame.Spec{
				Mode:    frame.Rows,
				Start:   frame.Bound{Type: frame.Preceding, Offset: 150},
				End:     frame.Bound{Type: frame.Following, Offset: 150},
				Exclude: ex,
			}
			w := leafCutoffWindow(fs, funcs)
			for _, cutoff := range []int{mst.LeafRows, 0} {
				prev := mst.SetLeafRows(cutoff)
				res, err := Run(tab, w, Options{TaskSize: 64})
				mst.SetLeafRows(prev)
				if err != nil {
					t.Fatal(err)
				}
				for i := range w.Funcs {
					f := &w.Funcs[i]
					compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("%d-row partitions ex%d cutoff %d %s", c.rows, ex, cutoff, f.Output))
				}
			}
		}
	}
}
