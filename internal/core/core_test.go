package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
)

// randTable builds a table with every column kind, NULLs included.
func randTable(rng *rand.Rand, n int) *Table {
	ints := make([]int64, n)
	intNulls := make([]bool, n)
	dates := make([]int64, n)
	dateNulls := make([]bool, n)
	groups := make([]int64, n)
	floats := make([]float64, n)
	floatNulls := make([]bool, n)
	strs := make([]string, n)
	strNulls := make([]bool, n)
	filt := make([]bool, n)
	filtNulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = rng.Int63n(12)
		intNulls[i] = rng.Intn(10) == 0
		dates[i] = rng.Int63n(40)
		dateNulls[i] = rng.Intn(15) == 0
		groups[i] = rng.Int63n(3)
		floats[i] = float64(rng.Intn(50)) / 2
		floatNulls[i] = rng.Intn(10) == 0
		strs[i] = string(rune('a' + rng.Intn(6)))
		strNulls[i] = rng.Intn(12) == 0
		filt[i] = rng.Intn(4) != 0
		filtNulls[i] = rng.Intn(20) == 0
	}
	return MustNewTable(
		NewInt64Column("g", groups, nil),
		NewInt64Column("d", dates, dateNulls),
		NewInt64Column("v", ints, intNulls),
		NewFloat64Column("fv", floats, floatNulls),
		NewStringColumn("s", strs, strNulls),
		NewBoolColumn("flt", filt, filtNulls),
	)
}

// randFrame draws a random frame spec. ROWS frames occasionally get
// per-row offset expressions (the non-monotonic case of §6.5); the offset
// functions hash the ORIGINAL row index, matching the operator's contract.
func randFrame(rng *rand.Rand) frame.Spec {
	modes := []frame.Mode{frame.Rows, frame.Rows, frame.Range, frame.Groups}
	s := frame.Spec{Mode: modes[rng.Intn(len(modes))]}
	bound := func(start bool) frame.Bound {
		r := rng.Intn(12)
		switch {
		case r < 2:
			if start {
				return frame.Bound{Type: frame.UnboundedPreceding}
			}
			return frame.Bound{Type: frame.UnboundedFollowing}
		case r < 5:
			return frame.Bound{Type: frame.Preceding, Offset: int64(rng.Intn(6))}
		case r < 7:
			return frame.Bound{Type: frame.CurrentRow}
		case r < 10 || s.Mode != frame.Rows:
			return frame.Bound{Type: frame.Following, Offset: int64(rng.Intn(6))}
		default:
			salt := rng.Int63n(1000)
			fn := func(row int) int64 { return (int64(row)*2654435761 + salt) % 7 }
			if rng.Intn(2) == 0 {
				return frame.Bound{Type: frame.Preceding, OffsetFn: fn}
			}
			return frame.Bound{Type: frame.Following, OffsetFn: fn}
		}
	}
	s.Start = bound(true)
	s.End = bound(false)
	s.Exclude = frame.Exclusion(rng.Intn(4))
	return s
}

func approxEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareToReference checks every row of out against the reference.
func compareToReference(t *testing.T, tab *Table, w *WindowSpec, f *FuncSpec, out *Column, label string) {
	t.Helper()
	ref := &refEvaluator{t: tab, w: w}
	for row := 0; row < tab.Rows(); row++ {
		want := ref.eval(f, row)
		gotNull := out.IsNull(row)
		if gotNull != want.null {
			t.Fatalf("%s row %d: null=%v, want %v", label, row, gotNull, want.null)
		}
		if want.null {
			continue
		}
		switch out.Kind() {
		case Int64:
			if out.Int64(row) != want.i {
				t.Fatalf("%s row %d: got %d, want %d", label, row, out.Int64(row), want.i)
			}
		case Float64:
			if !approxEqual(out.Float64(row), want.f) {
				t.Fatalf("%s row %d: got %v, want %v", label, row, out.Float64(row), want.f)
			}
		case String:
			if out.StringAt(row) != want.s {
				t.Fatalf("%s row %d: got %q, want %q", label, row, out.StringAt(row), want.s)
			}
		case Bool:
			if out.Bool(row) != want.b {
				t.Fatalf("%s row %d: got %v, want %v", label, row, out.Bool(row), want.b)
			}
		}
	}
}

// allFuncSpecs builds one spec per function with randomized knobs.
func allFuncSpecs(rng *rand.Rand) []FuncSpec {
	ordV := []SortKey{{Column: "v"}}
	ordVDesc := []SortKey{{Column: "v", Desc: true}}
	ordFV := []SortKey{{Column: "fv"}}
	ordDV := []SortKey{{Column: "d"}, {Column: "v", Desc: true}}
	pick := func(opts ...[]SortKey) []SortKey { return opts[rng.Intn(len(opts))] }
	maybeFilter := func() string {
		if rng.Intn(3) == 0 {
			return "flt"
		}
		return ""
	}
	ignoreNulls := rng.Intn(3) == 0
	return []FuncSpec{
		{Name: CountStar, Output: "o1", Filter: maybeFilter()},
		{Name: Count, Output: "o2", Arg: "v", Filter: maybeFilter()},
		{Name: Sum, Output: "o3", Arg: "v", Filter: maybeFilter()},
		{Name: Sum, Output: "o3f", Arg: "fv"},
		{Name: Avg, Output: "o4", Arg: "fv", Filter: maybeFilter()},
		{Name: Min, Output: "o5", Arg: "s"},
		{Name: Max, Output: "o6", Arg: "v", Filter: maybeFilter()},
		{Name: CountDistinct, Output: "o7", Arg: "v", Filter: maybeFilter()},
		{Name: CountDistinct, Output: "o7s", Arg: "s"},
		{Name: SumDistinct, Output: "o8", Arg: "v"},
		{Name: SumDistinct, Output: "o8f", Arg: "fv", Filter: maybeFilter()},
		{Name: AvgDistinct, Output: "o9", Arg: "v"},
		{Name: Rank, Output: "o10", OrderBy: pick(ordV, ordVDesc, ordDV)},
		{Name: DenseRank, Output: "o11", OrderBy: pick(ordV, ordVDesc), Filter: maybeFilter()},
		{Name: PercentRank, Output: "o12", OrderBy: pick(ordV, ordVDesc)},
		{Name: RowNumber, Output: "o13", OrderBy: pick(ordV, ordDV), Filter: maybeFilter()},
		{Name: CumeDist, Output: "o14", OrderBy: pick(ordV, ordVDesc)},
		{Name: Ntile, Output: "o15", N: int64(1 + rng.Intn(4)), OrderBy: ordV},
		{Name: PercentileDisc, Output: "o16", Fraction: float64(rng.Intn(101)) / 100, OrderBy: pick(ordV, ordFV), Filter: maybeFilter()},
		{Name: PercentileCont, Output: "o17", Fraction: float64(rng.Intn(101)) / 100, OrderBy: ordFV},
		{Name: NthValue, Output: "o18", Arg: "s", N: int64(1 + rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: FirstValue, Output: "o19", Arg: "v", OrderBy: pick(ordV, ordDV), Filter: maybeFilter(), IgnoreNulls: ignoreNulls},
		{Name: LastValue, Output: "o20", Arg: "fv", OrderBy: ordV},
		{Name: Lead, Output: "o21", Arg: "v", N: int64(rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: Lag, Output: "o22", Arg: "s", N: int64(rng.Intn(2)), OrderBy: ordV, Filter: maybeFilter()},
	}
}

// referenceSweep is one randomized pass over the operator: every trial draws
// a table, a frame and all 22 functions, runs them through Run and checks
// each output column against refEvaluator.
type referenceSweep struct {
	seed     int64
	trials   int
	sizes    []int         // table rows, cycled per trial
	trees    []mst.Options // tree variants, cycled per trial
	taskSize int           // small, so chunk boundaries (where dedup resets) fall inside partitions
	// rerun evaluates every trial a second time, back to back, and requires
	// bit-identical columns: the second run borrows the scratch buffers the
	// first one just returned, so a buffer that leaked into retained state
	// or was assumed zeroed shows up as a difference.
	rerun bool
}

func (s referenceSweep) run(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	for trial := 0; trial < s.trials; trial++ {
		tab := randTable(rng, s.sizes[trial%len(s.sizes)])
		fs := randFrame(rng)
		w := &WindowSpec{
			OrderBy:  []SortKey{{Column: "d", Desc: rng.Intn(2) == 0}},
			Frame:    fs,
			FrameSet: true,
		}
		if rng.Intn(2) == 0 {
			w.PartitionBy = []string{"g"}
		}
		w.Funcs = allFuncSpecs(rng)
		opt := Options{Tree: s.trees[trial%len(s.trees)], TaskSize: s.taskSize}
		res, err := Run(tab, w, opt)
		if err != nil {
			t.Fatalf("trial %d (frame %+v): %v", trial, fs, err)
		}
		var again *Result
		if s.rerun {
			if again, err = Run(tab, w, opt); err != nil {
				t.Fatalf("trial %d rerun: %v", trial, err)
			}
		}
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d %v (%s) frame{%v %v/%v ex%d}",
				trial, f.Name, f.Output, fs.Mode, fs.Start.Type, fs.End.Type, fs.Exclude)
			compareToReference(t, tab, w, f, res.Column(f.Output), label)
			if s.rerun {
				assertColumnsIdentical(t, label+" rerun", again.Column(f.Output), res.Column(f.Output))
			}
		}
	}
}

func TestOperatorAgainstReferenceRandomized(t *testing.T) {
	referenceSweep{
		seed: 42, trials: 12, sizes: []int{0, 1, 2, 7, 25, 60},
		trees:    []mst.Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}},
		taskSize: 16,
	}.run(t)
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
// overflow and wrap. Every answer must match the reference. Float
// SUM/AVG(DISTINCT) always descend — their fold order is part of the answer —
// so on the plain frames they must equal, bit for bit, AggBelowBatch over
// annotated trees built in the test. -short keeps the three widths at the cutoff, plain and
// EXCLUDE CURRENT ROW.
//
// The frame width also picks the structures' form: a statement whose frames
// span at most mst.LeafRows rows builds them leaf-only. One structure cache
// therefore serves a 127 PRECEDING statement and then a wider one, and the
// same pair in the reverse order: every answer must still match, and the
// cache must hold both width classes. A RANGE frame has no width bound, so
// there a partition of 128 rows goes leaf-only and one of 129 does not.
func TestReferenceAcrossLeafCutoff(t *testing.T) {
	tab, g, d, fv := leafCutoffTable(2, 300)
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
			if ex == frame.ExcludeNoOthers {
				checkFloatDistinctDescent(t, g, d, fv, width, res.Column("sdf"), res.Column("adf"))
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
			// Per partition, eight structures are width-bound — COUNT and
			// int64 SUM(DISTINCT), RANK and DENSE_RANK, each plain and
			// FILTERed — and each class holds all eight; the float
			// SUM/AVG(DISTINCT) trees are full under either frame.
			tags := []string{"|distinct-count|", "|distinct-agg|", "|rank-", "|dense|"}
			if leaf, full := cache.resident("w=leaf", tags...), cache.resident("w=full", tags...); leaf != 2*8 || full != 2*10 {
				t.Errorf("%s: the cache holds %d leaf-only and %d full structures, want %d and %d", label, leaf, full, 2*8, 2*10)
			}
		}
	}

	for _, rows := range []int{mst.LeafRows, mst.LeafRows + 1} {
		tab, _, _, _ := leafCutoffTable(2, rows)
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
// column flt. It returns the table and the columns checkFloatDistinctDescent
// reads.
func leafCutoffTable(parts, rows int) (tab *Table, g, d []int64, fv []float64) {
	rng := rand.New(rand.NewSource(128))
	n := parts * rows
	g, d = make([]int64, n), make([]int64, n)
	v, big := make([]int64, n), make([]int64, n)
	vNull, flt := make([]bool, n), make([]bool, n)
	fv = make([]float64, n)
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
	tab = MustNewTable(
		NewInt64Column("g", g, nil), NewInt64Column("d", d, nil),
		NewInt64Column("v", v, vNull), NewInt64Column("big", big, nil),
		NewFloat64Column("fv", fv, nil), NewBoolColumn("flt", flt, nil))
	return tab, g, d, fv
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

// checkFloatDistinctDescent recomputes SUM and AVG(DISTINCT fv) over ROWS
// frames of width rows with annotated trees built here and probed by
// AggBelowBatch, partition by partition in window order (d, then row index),
// and requires core's answers to carry the same bits.
func checkFloatDistinctDescent(t *testing.T, g, d []int64, fv []float64, width int, sums, avgs *Column) {
	t.Helper()
	byPart := map[int64][]int{}
	for i, p := range g {
		byPart[p] = append(byPart[p], i)
	}
	for _, order := range byPart {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
		prev := make([]int64, len(order))
		last := map[float64]int64{}
		vals := make([]float64, len(order))
		avg := make([]avgState, len(order))
		for j, row := range order {
			prev[j] = last[fv[row]]
			last[fv[row]] = int64(j) + 1
			vals[j], avg[j] = fv[row], avgState{sum: fv[row], n: 1}
		}
		st, err := mst.BuildAnnotated(prev, vals, func(a, b float64) float64 { return a + b }, mst.Options{})
		if err != nil {
			t.Fatal(err)
		}
		at, err := mst.BuildAnnotated(prev, avg, func(a, b avgState) avgState { return avgState{a.sum + b.sum, a.n + b.n} }, mst.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := len(order)
		lo, hi, cnt := make([]int32, k), make([]int32, k), make([]int32, k)
		thr, ok := make([]int64, k), make([]bool, k)
		for j := range order {
			a := max(j-width+1, 0)
			lo[j], hi[j], thr[j] = int32(a), int32(j+1), int64(a)+1
		}
		ss, as := make([]float64, k), make([]avgState, k)
		st.AggBelowBatch(lo, hi, thr, ss, ok, cnt)
		at.AggBelowBatch(lo, hi, thr, as, ok, cnt)
		for j, row := range order {
			s, av := ss[j], as[j]
			if got := sums.Float64(row); math.Float64bits(got) != math.Float64bits(s) {
				t.Fatalf("%d-row frame row %d: SUM(DISTINCT) %v (%x), AggBelowBatch %v (%x)", width, row, got, math.Float64bits(got), s, math.Float64bits(s))
			}
			if got, want := avgs.Float64(row), av.sum/float64(av.n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d-row frame row %d: AVG(DISTINCT) %v, AggBelowBatch %v", width, row, got, want)
			}
		}
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
		tab, _, _, _ := leafCutoffTable(c.parts, c.rows)
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
