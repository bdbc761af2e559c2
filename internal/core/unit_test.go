package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"holistic/internal/frame"
)

func TestNtileBucket(t *testing.T) {
	// SQL semantics: size=10, b=3 -> buckets of 4,3,3.
	want := []int64{1, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	for r, w := range want {
		if got := ntileBucket(int64(r), 10, 3); got != w {
			t.Errorf("ntile(10,3) row %d = %d, want %d", r, got, w)
		}
	}
	// More buckets than rows: each row its own bucket.
	for r := int64(0); r < 4; r++ {
		if got := ntileBucket(r, 4, 9); got != r+1 {
			t.Errorf("ntile(4,9) row %d = %d, want %d", r, got, r+1)
		}
	}
	// Exact division.
	for r := int64(0); r < 6; r++ {
		if got := ntileBucket(r, 6, 3); got != r/2+1 {
			t.Errorf("ntile(6,3) row %d = %d", r, got)
		}
	}
}

func TestPercentileDiscIndex(t *testing.T) {
	cases := []struct {
		p    float64
		size int
		want int
	}{
		{0, 5, 0}, {0.2, 5, 0}, {0.2000001, 5, 1}, {0.5, 5, 2},
		{0.5, 4, 1}, {1, 5, 4}, {0.99, 100, 98}, {1, 1, 0}, {0, 1, 0},
	}
	for _, c := range cases {
		if got := percentileDiscIndex(c.p, c.size); got != c.want {
			t.Errorf("percentileDiscIndex(%v, %d) = %d, want %d", c.p, c.size, got, c.want)
		}
	}
}

func TestForEachFullyExcluded(t *testing.T) {
	// Values:       a  b  a  c  b  a  d  (positions 0..6)
	// prev shifted: 0  0  1  0  2  3  0
	prev := []int64{0, 0, 1, 0, 2, 3, 0}
	next := []int64{2, 4, 5, 7, 7, 7, 7} // unshifted next-occurrence, sentinel 7
	collect := func(ranges [][2]int) []int {
		var hs []int
		forEachHoleFirst(prev, next, ranges, false, func(h int) { hs = append(hs, h) })
		return hs
	}
	// Frame [0,7) with hole [3,5): c@3 occurs only in the hole (fully
	// excluded); b@4 occurred at 1 (in a kept range) -> not excluded.
	got := collect([][2]int{{0, 3}, {5, 7}})
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("hole [3,5): excluded = %v, want [3]", got)
	}
	// Hole [1,3): b@1 first occurs in hole, but b@4 is kept -> chain
	// rescues it. a@2 is not a first occurrence (a@0 kept).
	got = collect([][2]int{{0, 1}, {3, 7}})
	if len(got) != 0 {
		t.Fatalf("hole [1,3): excluded = %v, want none", got)
	}
	// Two holes [1,2) and [4,6): b@1's chain goes to b@4 (also a hole) and
	// ends -> fully excluded; a@5's first occurrence a@0 is kept.
	got = collect([][2]int{{0, 1}, {2, 4}, {6, 7}})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("two holes: excluded = %v, want [1]", got)
	}
	// Single range: nothing to correct.
	if got = collect([][2]int{{0, 7}}); len(got) != 0 {
		t.Fatalf("single range: %v", got)
	}
	// The complement: b@1, first seen in hole [1,3), recurs at 4.
	var recurring []int
	forEachHoleFirst(prev, next, [][2]int{{0, 1}, {3, 7}}, true, func(h int) { recurring = append(recurring, h) })
	if !slices.Equal(recurring, []int{1}) {
		t.Fatalf("hole [1,3): recurring = %v, want [1]", recurring)
	}
}

// TestDistinctFloatSumUnderExclude: over fv = 1, x, 2 ordered by d, the
// frame ROWS 1 PRECEDING AND 1 FOLLOWING less the middle row is {1, 2}, so
// SUM(DISTINCT) is 3 and AVG(DISTINCT) 1.5 whatever x is. Subtracting x
// from a whole-span sum returned NaN for x = NaN or +Inf and 0 for 1e17.
func TestDistinctFloatSumUnderExclude(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), 1e17} {
		for _, ex := range []frame.Exclusion{frame.ExcludeCurrentRow, frame.ExcludeGroup} {
			tab := MustNewTable(NewInt64Column("d", []int64{0, 1, 2}, nil), NewFloat64Column("fv", []float64{1, x, 2}, nil))
			w := &WindowSpec{
				OrderBy:  []SortKey{{Column: "d"}},
				Frame:    frame.Spec{Mode: frame.Rows, Start: frame.Bound{Type: frame.Preceding, Offset: 1}, End: frame.Bound{Type: frame.Following, Offset: 1}, Exclude: ex},
				FrameSet: true,
				Funcs:    []FuncSpec{{Name: SumDistinct, Output: "s", Arg: "fv"}, {Name: AvgDistinct, Output: "a", Arg: "fv"}},
			}
			res, err := Run(tab, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s, a := res.Column("s").Float64(1), res.Column("a").Float64(1); s != 3 || a != 1.5 {
				t.Errorf("x=%v ex%d: SUM(DISTINCT) %v, AVG(DISTINCT) %v at the middle row, want 3 and 1.5", x, ex, s, a)
			}
			for i := range w.Funcs {
				compareToReference(t, tab, w, &w.Funcs[i], res.Column(w.Funcs[i].Output), fmt.Sprintf("x=%v ex%d", x, ex))
			}
		}
	}
}

func TestColumnCompareNullPlacement(t *testing.T) {
	col := NewInt64Column("x", []int64{1, 2, 0}, []bool{false, false, true})
	// Ascending, NULLs largest (default): 1 < 2 < NULL.
	if col.Compare(0, 2, false, true) != -1 || col.Compare(2, 1, false, true) != 1 {
		t.Fatal("asc nulls-last broken")
	}
	// Descending flips everything: NULL < 2 < 1.
	if col.Compare(2, 1, true, true) != -1 || col.Compare(1, 0, true, true) != -1 {
		t.Fatal("desc nulls-first broken")
	}
	// NULLS smallest: NULL first ascending.
	if col.Compare(2, 0, false, false) != -1 {
		t.Fatal("asc nulls-first broken")
	}
	if col.Compare(2, 2, false, true) != 0 {
		t.Fatal("null == null")
	}
}

func TestFloatCompareNaN(t *testing.T) {
	nan := math.NaN()
	if floatCompare(nan, 1) != 1 || floatCompare(1, nan) != -1 || floatCompare(nan, nan) != 0 {
		t.Fatal("NaN must order as the largest value")
	}
	if floatCompare(math.Inf(1), nan) != -1 {
		t.Fatal("NaN must order above +Inf")
	}
	if floatCompare(1, 2) != -1 || floatCompare(2, 1) != 1 || floatCompare(2, 2) != 0 {
		t.Fatal("plain float compare broken")
	}
}

func TestColumnRenamed(t *testing.T) {
	col := NewFloat64Column("a", []float64{1, 2}, []bool{false, true})
	r := col.Renamed("b")
	if r.Name() != "b" || col.Name() != "a" {
		t.Fatal("rename must not alias the original")
	}
	if r.Float64(0) != 1 || !r.IsNull(1) {
		t.Fatal("renamed column lost data")
	}
	if col.Renamed("a") != col {
		t.Fatal("same-name rename should return the receiver")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(NewInt64Column("a", []int64{1}, nil), nil); err == nil {
		t.Fatal("nil column must fail")
	}
	if _, err := NewTable(
		NewInt64Column("a", []int64{1}, nil),
		NewInt64Column("a", []int64{2}, nil)); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := NewTable(
		NewInt64Column("a", []int64{1}, nil),
		NewInt64Column("b", []int64{1, 2}, nil)); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestStringsAndKinds(t *testing.T) {
	if Int64.String() != "INT64" || Bool.String() != "BOOL" {
		t.Fatal("Kind strings wrong")
	}
	if CountDistinct.String() != "count(distinct)" || Lead.String() != "lead" {
		t.Fatal("FuncName strings wrong")
	}
	if FuncName(999).String() == "" || Kind(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestMultiKeyPartitionAndOrder(t *testing.T) {
	// Two partition columns (one string), two order keys with mixed
	// directions; compare against the reference on a fixed table.
	region := []string{"eu", "us", "eu", "us", "eu", "us", "eu", "us"}
	tier := []int64{1, 1, 2, 2, 1, 1, 2, 2}
	d := []int64{1, 1, 1, 1, 2, 2, 2, 2}
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	tab := MustNewTable(
		NewStringColumn("region", region, nil),
		NewInt64Column("tier", tier, nil),
		NewInt64Column("d", d, nil),
		NewInt64Column("v", v, nil),
	)
	w := &WindowSpec{
		PartitionBy: []string{"region", "tier"},
		OrderBy:     []SortKey{{Column: "d"}, {Column: "v", Desc: true}},
		Frame:       frame.Spec{Mode: frame.Rows, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}},
		FrameSet:    true,
		Funcs: []FuncSpec{
			{Name: CountStar, Output: "c"},
			{Name: Sum, Output: "s", Arg: "v"},
		},
	}
	res, err := Run(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Funcs {
		compareToReference(t, tab, w, &w.Funcs[i], res.Column(w.Funcs[i].Output), "multikey")
	}
	// Partition (eu,1) holds rows 0 and 4: running counts 1 and 2.
	if res.Column("c").Int64(0) != 1 || res.Column("c").Int64(4) != 2 {
		t.Fatal("partitioning wrong")
	}
}

func TestLargeSinglePartitionParallel(t *testing.T) {
	// Cross-check a larger run (multiple tasks) against small task sizes.
	n := 50_000
	d := make([]int64, n)
	v := make([]int64, n)
	for i := range d {
		d[i] = int64(i % 1000)
		v[i] = int64((i * 7919) % 512)
	}
	tab := MustNewTable(
		NewInt64Column("d", d, nil),
		NewInt64Column("v", v, nil),
	)
	w := func() *WindowSpec {
		return &WindowSpec{
			OrderBy: []SortKey{{Column: "d"}},
			Frame: frame.Spec{Mode: frame.Rows,
				Start: frame.Bound{Type: frame.Preceding, Offset: 777},
				End:   frame.Bound{Type: frame.Following, Offset: 123}},
			FrameSet: true,
			Funcs: []FuncSpec{
				{Name: CountDistinct, Output: "cd", Arg: "v"},
				{Name: PercentileDisc, Output: "p90", Fraction: 0.9, OrderBy: []SortKey{{Column: "v"}}},
				{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
			},
		}
	}
	small, err := Run(tab, w(), Options{TaskSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(tab, w(), Options{TaskSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"cd", "p90", "r"} {
		for i := 0; i < n; i++ {
			if small.Column(col).Int64(i) != big.Column(col).Int64(i) {
				t.Fatalf("%s[%d]: task-size dependence (%d != %d)", col, i,
					small.Column(col).Int64(i), big.Column(col).Int64(i))
			}
		}
	}
}

func TestAllNullArgColumn(t *testing.T) {
	n := 6
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	tab := MustNewTable(
		NewInt64Column("d", []int64{1, 2, 3, 4, 5, 6}, nil),
		NewInt64Column("v", make([]int64, n), nulls),
	)
	w := &WindowSpec{
		OrderBy:  []SortKey{{Column: "d"}},
		Frame:    frame.Spec{Mode: frame.Rows, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "v"},
			{Name: SumDistinct, Output: "sd", Arg: "v"},
			{Name: PercentileDisc, Output: "p", Fraction: 0.5, OrderBy: []SortKey{{Column: "v"}}},
			{Name: FirstValue, Output: "fv", Arg: "v", OrderBy: []SortKey{{Column: "v"}}, IgnoreNulls: true},
		},
	}
	res, err := Run(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Column("cd").Int64(i) != 0 {
			t.Fatal("count distinct of all-NULL column must be 0")
		}
		for _, c := range []string{"sd", "p", "fv"} {
			if !res.Column(c).IsNull(i) {
				t.Fatalf("%s must be NULL for all-NULL input", c)
			}
		}
	}
}

func TestEmptyTable(t *testing.T) {
	tab := MustNewTable(
		NewInt64Column("d", nil, nil),
		NewInt64Column("v", nil, nil),
	)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Funcs:   []FuncSpec{{Name: CountDistinct, Output: "cd", Arg: "v"}},
	}
	res, err := Run(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("cd").Len() != 0 {
		t.Fatal("empty input must yield empty output")
	}
}
