package plan_test

import (
	"math/rand"
	"strconv"
	"testing"

	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/lattice"
	"holistic/internal/obs"
	"holistic/internal/oracle"
	"holistic/internal/plan"
	"holistic/internal/treecache"
)

// TestPlainAggregatesShareStructures runs MIN, MAX, FIRST_VALUE(fv ORDER BY
// fv IGNORE NULLS), MEDIAN(ORDER BY fv), SUM and AVG of one float column
// under one FILTER over three partitions. MIN and MAX are the first and the
// last kept value in value order, so the first four probe one permutation
// tree, and SUM and AVG one entry of prefix sums: per partition the
// statement builds one tree and one prefix entry, the plan counts the three
// shared trees, a second run on the same cache builds nothing, and every
// answer is the oracle's bit for bit.
func TestPlainAggregatesShareStructures(t *testing.T) {
	const parts = 3 // the rigs' g takes three values, none NULL
	tab := lattice.RandTable(rand.New(rand.NewSource(61)), 450)
	byFV := []core.SortKey{{Column: "fv"}}
	rows := func(preceding, following int64) *frame.Spec {
		return &frame.Spec{Mode: frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: preceding},
			End:   frame.Bound{Type: frame.Following, Offset: following}}
	}
	whole := frame.WholePartition()
	funcs := []core.FuncSpec{
		{Name: core.Min, Output: "mn", Arg: "fv", Frame: rows(5, 0)},
		{Name: core.Max, Output: "mx", Arg: "fv", Frame: rows(40, 40)},
		{Name: core.FirstValue, Output: "first", Arg: "fv", OrderBy: byFV, IgnoreNulls: true, Frame: &whole},
		{Name: core.PercentileCont, Output: "median", Fraction: 0.5, OrderBy: byFV, Frame: rows(10, 3)},
		{Name: core.Sum, Output: "sum", Arg: "fv", Frame: rows(7, 7)},
		{Name: core.Avg, Output: "avg", Arg: "fv", Frame: &whole},
	}
	stmt := &plan.Statement{Table: "t"}
	for i := range funcs {
		funcs[i].Filter = "flt"
		stmt.Items = append(stmt.Items, plan.Item{Name: funcs[i].Output,
			PartitionBy: []string{"g"}, OrderBy: []core.SortKey{{Column: "d"}}, Func: &funcs[i]})
	}
	p, err := plan.Build(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if want := (plan.Stats{Operators: 11, TreesShared: 3, PreprocessShared: 4}); p.Stats != want {
		t.Errorf("stats = %+v, want %+v\n%s", p.Stats, want, plan.RenderText(p.Nodes))
	}

	want := lattice.Answers(stmt, tab)
	cache := treecache.New(64 << 20)
	for run, expect := range []struct{ trees, builds, hits int }{
		{parts, 2 * parts, (len(funcs) - 2) * parts},
		{0, 0, len(funcs) * parts},
	} {
		root := obs.NewSpan("statement")
		out, _, err := p.Execute(tab, core.Options{Cache: cache, CacheScope: "t@v1", Trace: root})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		trees, builds, hits := 0, 0, 0
		root.Walk(func(sp *obs.Span, _ int) {
			switch sp.Name() {
			case "build merge sort tree":
				trees += sp.Count()
			case "eval":
				b, _ := strconv.Atoi(sp.Attr("cache_builds"))
				h, _ := strconv.Atoi(sp.Attr("cache_hits"))
				builds, hits = builds+b, hits+h
			}
		})
		if trees != expect.trees || builds != expect.builds || hits != expect.hits {
			t.Errorf("run %d: %d tree builds, %d cache builds and %d hits, want %d, %d and %d\n%s",
				run, trees, builds, hits, expect.trees, expect.builds, expect.hits, root.Render())
		}
		for i, item := range stmt.Items {
			got := lattice.Column(out.Column(item.Name))
			for row, w := range want[i] {
				if !oracle.Identical(got.Value(row), w) {
					t.Fatalf("run %d, %s row %d: got %+v, the oracle gives %+v", run, item.Name, row, got.Value(row), w)
				}
			}
		}
	}
}
