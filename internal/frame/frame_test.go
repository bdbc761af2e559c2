package frame

import (
	"math"
	"testing"
)

// mustComputer builds a computer or fails the test.
func mustComputer(t *testing.T, spec Spec, n int, keys []int64, groups []int32) *Computer {
	t.Helper()
	c, err := NewComputer(spec, n, keys, groups)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bounds(c *Computer, n int) [][2]int {
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		lo, hi := c.Bounds(i)
		out[i] = [2]int{lo, hi}
	}
	return out
}

func TestRowsBounds(t *testing.T) {
	n := 6
	cases := []struct {
		name string
		spec Spec
		want [][2]int
	}{
		{
			"unbounded preceding to current row",
			Spec{Mode: Rows, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: CurrentRow}},
			[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}},
		},
		{
			"2 preceding to current row",
			Spec{Mode: Rows, Start: Bound{Type: Preceding, Offset: 2}, End: Bound{Type: CurrentRow}},
			[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 5}, {3, 6}},
		},
		{
			"current row to 1 following",
			Spec{Mode: Rows, Start: Bound{Type: CurrentRow}, End: Bound{Type: Following, Offset: 1}},
			[][2]int{{0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 6}},
		},
		{
			"whole partition",
			WholePartition(),
			[][2]int{{0, 6}, {0, 6}, {0, 6}, {0, 6}, {0, 6}, {0, 6}},
		},
		{
			"3 preceding to 1 preceding",
			Spec{Mode: Rows, Start: Bound{Type: Preceding, Offset: 3}, End: Bound{Type: Preceding, Offset: 1}},
			[][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 5}},
		},
		{
			"1 following to 3 following",
			Spec{Mode: Rows, Start: Bound{Type: Following, Offset: 1}, End: Bound{Type: Following, Offset: 3}},
			[][2]int{{1, 4}, {2, 5}, {3, 6}, {4, 6}, {5, 6}, {6, 6}},
		},
	}
	for _, c := range cases {
		comp := mustComputer(t, c.spec, n, nil, nil)
		got := bounds(comp, n)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: row %d frame %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestRangeBounds(t *testing.T) {
	keys := []int64{1, 3, 3, 5, 9, 9, 9, 14}
	n := len(keys)
	spec := Spec{Mode: Range,
		Start: Bound{Type: Preceding, Offset: 4},
		End:   Bound{Type: CurrentRow}}
	c := mustComputer(t, spec, n, keys, nil)
	// Row 3 (key 5): keys in [1, 5] -> rows 0..3; peers of 5 end at 4.
	if lo, hi := c.Bounds(3); lo != 0 || hi != 4 {
		t.Fatalf("row 3 = [%d,%d), want [0,4)", lo, hi)
	}
	// Row 4 (key 9): keys in [5, 9] -> rows 3..6 (all three 9-peers).
	if lo, hi := c.Bounds(4); lo != 3 || hi != 7 {
		t.Fatalf("row 4 = [%d,%d), want [3,7)", lo, hi)
	}
	// CURRENT ROW end includes peers: row 5 (another 9) same frame.
	if lo, hi := c.Bounds(5); lo != 3 || hi != 7 {
		t.Fatalf("row 5 = [%d,%d), want [3,7)", lo, hi)
	}
}

func TestRangeFollowing(t *testing.T) {
	keys := []int64{1, 3, 3, 5, 9}
	spec := Spec{Mode: Range,
		Start: Bound{Type: CurrentRow},
		End:   Bound{Type: Following, Offset: 2}}
	c := mustComputer(t, spec, len(keys), keys, nil)
	// Row 0 (key 1): [1, 3] -> rows 0..2.
	if lo, hi := c.Bounds(0); lo != 0 || hi != 3 {
		t.Fatalf("row 0 = [%d,%d), want [0,3)", lo, hi)
	}
	// Row 3 (key 5): [5, 7] -> row 3 only.
	if lo, hi := c.Bounds(3); lo != 3 || hi != 4 {
		t.Fatalf("row 3 = [%d,%d), want [3,4)", lo, hi)
	}
}

func TestRangeUnboundedDefault(t *testing.T) {
	keys := []int64{2, 2, 4, 6}
	c := mustComputer(t, Default(), len(keys), keys, nil)
	want := [][2]int{{0, 2}, {0, 2}, {0, 3}, {0, 4}}
	for i, w := range want {
		if lo, hi := c.Bounds(i); lo != w[0] || hi != w[1] {
			t.Fatalf("row %d = [%d,%d), want %v", i, lo, hi, w)
		}
	}
}

func TestGroupsBounds(t *testing.T) {
	groups := []int32{0, 0, 1, 1, 1, 2, 3, 3}
	n := len(groups)
	spec := Spec{Mode: Groups,
		Start: Bound{Type: Preceding, Offset: 1},
		End:   Bound{Type: Following, Offset: 1}}
	c := mustComputer(t, spec, n, nil, groups)
	want := [][2]int{
		{0, 5}, {0, 5}, // group 0: groups -1..1 -> rows 0..5
		{0, 6}, {0, 6}, {0, 6}, // group 1: groups 0..2
		{2, 8},         // group 2: groups 1..3
		{5, 8}, {5, 8}, // group 3: groups 2..4 (clamped)
	}
	for i, w := range want {
		if lo, hi := c.Bounds(i); lo != w[0] || hi != w[1] {
			t.Fatalf("row %d = [%d,%d), want %v", i, lo, hi, w)
		}
	}
}

func TestPerRowOffsets(t *testing.T) {
	// Non-monotonic ROWS frame driven by a per-row expression (§6.5).
	n := 10
	offsets := []int64{0, 3, 1, 4, 1, 5, 9, 2, 6, 5}
	spec := Spec{Mode: Rows,
		Start: Bound{Type: Preceding, OffsetFn: func(row int) int64 { return offsets[row] }},
		End:   Bound{Type: CurrentRow}}
	c := mustComputer(t, spec, n, nil, nil)
	for i := 0; i < n; i++ {
		wantLo := i - int(offsets[i])
		if wantLo < 0 {
			wantLo = 0
		}
		if lo, hi := c.Bounds(i); lo != wantLo || hi != i+1 {
			t.Fatalf("row %d = [%d,%d), want [%d,%d)", i, lo, hi, wantLo, i+1)
		}
	}
	// Negative per-row offsets clamp to zero.
	neg := Spec{Mode: Rows,
		Start: Bound{Type: Preceding, OffsetFn: func(int) int64 { return -5 }},
		End:   Bound{Type: CurrentRow}}
	cn := mustComputer(t, neg, n, nil, nil)
	if lo, hi := cn.Bounds(4); lo != 4 || hi != 5 {
		t.Fatalf("clamped = [%d,%d), want [4,5)", lo, hi)
	}
}

// frameSize is the number of rows in row's frame after exclusion.
func frameSize(c *Computer, row int) int {
	total := 0
	for _, r := range c.Ranges(row, nil) {
		total += r[1] - r[0]
	}
	return total
}

func TestExclusions(t *testing.T) {
	groups := []int32{0, 1, 1, 1, 2, 2}
	n := len(groups)
	base := Spec{Mode: Rows, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: UnboundedFollowing}}

	cur := base
	cur.Exclude = ExcludeCurrentRow
	c := mustComputer(t, cur, n, nil, groups)
	if got := c.Ranges(2, nil); len(got) != 2 || got[0] != [2]int{0, 2} || got[1] != [2]int{3, 6} {
		t.Fatalf("exclude current row: %v", got)
	}
	if got := frameSize(c, 2); got != 5 {
		t.Fatalf("frame size = %d, want 5", got)
	}

	grp := base
	grp.Exclude = ExcludeGroup
	c = mustComputer(t, grp, n, nil, groups)
	if got := c.Ranges(2, nil); len(got) != 2 || got[0] != [2]int{0, 1} || got[1] != [2]int{4, 6} {
		t.Fatalf("exclude group: %v", got)
	}

	ties := base
	ties.Exclude = ExcludeTies
	c = mustComputer(t, ties, n, nil, groups)
	got := c.Ranges(2, nil)
	if len(got) != 3 || got[0] != [2]int{0, 1} || got[1] != [2]int{2, 3} || got[2] != [2]int{4, 6} {
		t.Fatalf("exclude ties: %v", got)
	}
	if got := frameSize(c, 2); got != 4 {
		t.Fatalf("ties frame size = %d, want 4", got)
	}

	// Row at the partition edge: exclusion at the boundary leaves 2 ranges.
	if got := c.Ranges(0, nil); len(got) != 2 || got[0] != [2]int{0, 1} || got[1] != [2]int{1, 6} {
		t.Fatalf("edge ties: %v", got)
	}
}

func TestExclusionOutsideFrame(t *testing.T) {
	// Frame strictly after the current row; excluding the current row must
	// not change anything, and EXCLUDE TIES must not re-add the row.
	groups := []int32{0, 0, 0, 1, 2}
	spec := Spec{Mode: Rows,
		Start:   Bound{Type: Following, Offset: 2},
		End:     Bound{Type: Following, Offset: 4},
		Exclude: ExcludeTies}
	c := mustComputer(t, spec, 5, nil, groups)
	// Row 0's frame is [2,5); its peer row 2 is inside the frame and gets
	// excluded, while row 0 itself was never part of the frame and must not
	// be re-added.
	got := c.Ranges(0, nil)
	if len(got) != 1 || got[0] != [2]int{3, 5} {
		t.Fatalf("ranges = %v, want [[3,5)]", got)
	}
	// Row 1's peers are rows 0..2; frame is [3,5); untouched.
	if got = c.Ranges(1, nil); len(got) != 1 || got[0] != [2]int{3, 5} {
		t.Fatalf("ranges = %v, want [[3,5)]", got)
	}
}

func TestEmptyFrames(t *testing.T) {
	spec := Spec{Mode: Rows,
		Start: Bound{Type: Following, Offset: 5},
		End:   Bound{Type: Following, Offset: 2}}
	c := mustComputer(t, spec, 4, nil, nil)
	for i := 0; i < 4; i++ {
		if lo, hi := c.Bounds(i); lo != hi {
			t.Fatalf("inverted bounds row %d: [%d,%d)", i, lo, hi)
		}
		if got := c.Ranges(i, nil); len(got) != 0 {
			t.Fatalf("inverted bounds row %d: ranges %v", i, got)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{Mode: Rows, Start: Bound{Type: UnboundedFollowing}, End: Bound{Type: CurrentRow}},
		{Mode: Rows, Start: Bound{Type: CurrentRow}, End: Bound{Type: UnboundedPreceding}},
		{Mode: Rows, Start: Bound{Type: Preceding, Offset: -1}, End: Bound{Type: CurrentRow}},
	}
	for i, s := range bad {
		if _, err := NewComputer(s, 10, nil, nil); err == nil {
			t.Errorf("spec %d: expected validation error", i)
		}
	}
	if _, err := NewComputer(Spec{Mode: Range, Start: Bound{Type: Preceding, Offset: 1}, End: Bound{Type: CurrentRow}}, 3, nil, nil); err == nil {
		t.Error("RANGE without keys must fail")
	}
	if _, err := NewComputer(Spec{Mode: Groups, Start: Bound{Type: CurrentRow}, End: Bound{Type: CurrentRow}}, 3, nil, nil); err == nil {
		t.Error("GROUPS without peer groups must fail")
	}
}

func TestRangeOffsetSaturation(t *testing.T) {
	const big = int64(1) << 62
	const huge = big + big/2
	keys := []int64{-big, 0, big}
	spec := Spec{Mode: Range,
		Start: Bound{Type: Preceding, Offset: huge},
		End:   Bound{Type: Following, Offset: huge}}
	c := mustComputer(t, spec, 3, keys, nil)
	// Row 0: key-huge saturates to -inf (lo 0); key+huge = big/2 < big, so
	// row 2 stays out. Row 1 covers everything. Row 2: key+huge saturates
	// to +inf, key-huge = -big/2 > -big, so row 0 stays out.
	want := [][2]int{{0, 2}, {0, 3}, {1, 3}}
	for i, w := range want {
		if lo, hi := c.Bounds(i); lo != w[0] || hi != w[1] {
			t.Fatalf("row %d = [%d,%d), want %v", i, lo, hi, w)
		}
	}
}

func TestModeAndBoundStrings(t *testing.T) {
	if Rows.String() != "ROWS" || Range.String() != "RANGE" || Groups.String() != "GROUPS" {
		t.Error("mode strings wrong")
	}
	if UnboundedPreceding.String() != "UNBOUNDED PRECEDING" || CurrentRow.String() != "CURRENT ROW" {
		t.Error("bound strings wrong")
	}
}

func TestMaxRows(t *testing.T) {
	const maxI = math.MaxInt64
	rows := func(start, end Bound) Spec { return Spec{Mode: Rows, Start: start, End: end} }
	pre := func(o int64) Bound { return Bound{Type: Preceding, Offset: o} }
	fol := func(o int64) Bound { return Bound{Type: Following, Offset: o} }
	cur := Bound{Type: CurrentRow}
	perRow := Bound{Type: Preceding, OffsetFn: func(int) int64 { return 1 }}
	cases := []struct {
		name  string
		spec  Spec
		want  int64
		known bool
	}{
		{"preceding and preceding", rows(pre(10), pre(5)), 6, true},
		{"preceding and following", rows(pre(3), fol(4)), 8, true},
		{"following and following", rows(fol(2), fol(7)), 6, true},
		{"preceding and current row", rows(pre(109), cur), 110, true},
		{"current row and following", rows(cur, fol(9)), 10, true},
		{"current row only", rows(cur, cur), 1, true},
		{"following and preceding", rows(fol(1), pre(1)), 0, true},
		{"empty: 5 preceding and 10 preceding", rows(pre(5), pre(10)), 0, true},
		{"empty: 10 following and 5 following", rows(fol(10), fol(5)), 0, true},
		{"saturates: max preceding and max following", rows(pre(maxI), fol(maxI)), maxI, true},
		{"saturates: max preceding and current row", rows(pre(maxI), cur), maxI, true},
		{"no wrap: max preceding and max preceding", rows(pre(maxI), pre(maxI)), 1, true},
		{"empty at the limit: 0 preceding and max preceding", rows(pre(0), pre(maxI)), 0, true},
		{"unbounded preceding", rows(Bound{Type: UnboundedPreceding}, cur), 0, false},
		{"unbounded following", rows(cur, Bound{Type: UnboundedFollowing}), 0, false},
		{"per-row start offset", rows(perRow, cur), 0, false},
		{"per-row end offset", rows(cur, Bound{Type: Following, OffsetFn: func(int) int64 { return 1 }}), 0, false},
		{"range", Spec{Mode: Range, Start: pre(2), End: cur}, 0, false},
		{"groups", Spec{Mode: Groups, Start: pre(2), End: fol(2)}, 0, false},
		{"default frame", Default(), 0, false},
	}
	for _, c := range cases {
		got, known := c.spec.MaxRows()
		if known != c.known || (known && got != c.want) {
			t.Errorf("%s: MaxRows() = %d, %v; want %d, %v", c.name, got, known, c.want, c.known)
		}
	}

	// The bound is what the computer's frames reach, exclusion or not: no
	// row's range is wider, and an interior row's is exactly as wide.
	for _, c := range cases[:9] {
		for _, ex := range []Exclusion{ExcludeNoOthers, ExcludeCurrentRow} {
			spec := c.spec
			spec.Exclude = ex
			comp := mustComputer(t, spec, 60, nil, nil)
			widest := 0
			for row := 0; row < 60; row++ {
				lo, hi := comp.Bounds(row)
				widest = max(widest, hi-lo)
				if size := frameSize(comp, row); int64(size) > c.want {
					t.Errorf("%s, exclusion %d: row %d spans %d rows, over MaxRows %d", c.name, ex, row, size, c.want)
				}
			}
			if int64(widest) != min(c.want, 60) {
				t.Errorf("%s: widest frame %d rows in a 60-row partition, MaxRows %d", c.name, widest, c.want)
			}
		}
	}
}
