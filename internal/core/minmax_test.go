package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"holistic/internal/obs"
	"holistic/internal/oracle"
)

// TestMinMaxAreFirstLastValue pins the MIN/MAX tie rule: MIN(x) is the
// first kept row of its frame in (x, table row) order and MAX(x) the last,
// so they equal FIRST_VALUE(x ORDER BY x IGNORE NULLS) and
// LAST_VALUE(x ORDER BY x IGNORE NULLS) bit for bit. The float column holds
// −0.0, +0.0 and two NaN payloads — values that compare equal among
// themselves but differ in their bits — in a table whose window order (d
// descending, with ties) is not its row order, under random frames, FILTER
// and partitions. The oracle must agree with both.
func TestMinMaxAreFirstLastValue(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002)
	values := []float64{math.Copysign(0, -1), 0, nan1, nan2, 1.5, -2}
	byX := []SortKey{{Column: "x"}}
	for trial := range 60 {
		n := 1 + rng.Intn(80)
		g, d, x := make([]int64, n), make([]int64, n), make([]float64, n)
		xNull, flt := make([]bool, n), make([]bool, n)
		for i := range n {
			g[i], d[i] = rng.Int63n(3), rng.Int63n(20)
			x[i] = values[rng.Intn(len(values))]
			xNull[i] = rng.Intn(8) == 0
			flt[i] = rng.Intn(4) != 0
		}
		tab := MustNewTable(NewInt64Column("g", g, nil), NewInt64Column("d", d, nil),
			NewFloat64Column("x", x, xNull), NewBoolColumn("flt", flt, nil))
		filter := ""
		if rng.Intn(2) == 0 {
			filter = "flt"
		}
		w := &WindowSpec{PartitionBy: []string{"g"}, OrderBy: []SortKey{{Column: "d", Desc: true}},
			Frame: oracle.RandFrame(rng), FrameSet: true, Funcs: []FuncSpec{
				{Name: Min, Output: "min", Arg: "x", Filter: filter},
				{Name: FirstValue, Output: "first", Arg: "x", OrderBy: byX, IgnoreNulls: true, Filter: filter},
				{Name: Max, Output: "max", Arg: "x", Filter: filter},
				{Name: LastValue, Output: "last", Arg: "x", OrderBy: byX, IgnoreNulls: true, Filter: filter},
			}}
		res, err := Run(tab, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d, %d rows, filter %q, frame %+v", trial, n, filter, w.Frame)
		requireIdentical(t, label+": MIN against FIRST_VALUE", res.Column("min"), res.Column("first"))
		requireIdentical(t, label+": MAX against LAST_VALUE", res.Column("max"), res.Column("last"))
		compareToReference(t, tab, w, &w.Funcs[0], res.Column("min"), label+": MIN")
		compareToReference(t, tab, w, &w.Funcs[2], res.Column("max"), label+": MAX")
	}
}

// TestMinMaxRejectBool checks that MIN and MAX over a BOOL column are
// refused by validation, before the statement's sort, with the function and
// its output named in the message.
func TestMinMaxRejectBool(t *testing.T) {
	tab := MustNewTable(NewInt64Column("d", []int64{2, 1, 3}, nil), NewBoolColumn("b", []bool{true, false, true}, nil))
	for _, name := range []FuncName{Min, Max} {
		w := &WindowSpec{OrderBy: []SortKey{{Column: "d"}}, Funcs: []FuncSpec{{Name: name, Output: "m", Arg: "b"}}}
		root := obs.NewSpan("query")
		_, err := Run(tab, w, Options{Trace: root})
		root.End()
		if want := fmt.Sprintf(`core: %v (m): argument "b" is BOOL`, name); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%v over BOOL: error %v, want one starting %q", name, err, want)
		}
		if n := countSpans(root); n != 1 {
			t.Errorf("%v over BOOL: the refused statement opened spans:\n%s", name, root.Render())
		}
	}
}
