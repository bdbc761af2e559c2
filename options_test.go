package holistic_test

import (
	"context"
	"strings"
	"testing"

	"holistic"
)

func optionsTable(t *testing.T) *holistic.Table {
	t.Helper()
	return holistic.MustNewTable(
		holistic.NewInt64Column("d", []int64{1, 2, 3, 4, 5, 6}, nil),
		holistic.NewInt64Column("v", []int64{4, 1, 4, 2, 1, 3}, nil),
	)
}

// TestNewOptionsFoldsFields checks each functional option lands on the
// matching Options field, so mixed-style callers see one configuration.
func TestNewOptionsFoldsFields(t *testing.T) {
	ctx := context.Background()
	root := holistic.NewTrace("q")
	opt := holistic.NewOptions(
		holistic.WithContext(ctx),
		holistic.WithTrace(root),
		holistic.WithTaskSize(123),
		holistic.WithEngine(holistic.EngineNaive),
		holistic.WithParallelism(2),
	)
	if opt.Context != ctx || opt.Trace != root {
		t.Fatal("context/trace options not applied")
	}
	if opt.TaskSize != 123 || opt.DefaultEngine != holistic.EngineNaive || opt.Workers != 2 {
		t.Fatalf("options not applied: %+v", opt)
	}
}

// TestRunWithTrace runs via the functional-options entry point and checks
// the span tree carries the operator's phases, and that results agree with
// the zero-option path.
func TestRunWithTrace(t *testing.T) {
	tab := optionsTable(t)
	w := holistic.Over().OrderBy(holistic.Asc("d")).
		Frame(holistic.Rows(holistic.Preceding(2), holistic.CurrentRow()))
	fn := func() *holistic.Func { return holistic.CountDistinct("v").As("cd") }

	plain, err := holistic.Run(tab, w, fn())
	if err != nil {
		t.Fatal(err)
	}

	root := holistic.NewTrace("query")
	traced, err := holistic.RunWith(tab, w, []*holistic.Func{fn()},
		holistic.WithTrace(root), holistic.WithParallelism(1))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Rows(); i++ {
		if plain.Column("cd").Int64(i) != traced.Column("cd").Int64(i) {
			t.Fatalf("row %d: traced run diverges from plain run", i)
		}
	}

	rendered := root.Render()
	for _, phase := range []string{"partition+order sort", "partition boundaries", "probe"} {
		if !strings.Contains(rendered, phase) {
			t.Fatalf("trace missing %q:\n%s", phase, rendered)
		}
	}
	if strings.Contains(rendered, "(unfinished)") {
		t.Fatalf("unfinished spans after Run:\n%s", rendered)
	}
}

// TestWithEngineDefault checks the run-level engine default: it applies to
// functions left on the zero-value engine, loses to per-function choices,
// and WithEngine(EngineMergeSortTree) is a no-op — all three paths agree on
// results.
func TestWithEngineDefault(t *testing.T) {
	tab := optionsTable(t)
	w := holistic.Over().OrderBy(holistic.Asc("d")).
		Frame(holistic.Rows(holistic.Preceding(2), holistic.CurrentRow()))

	run := func(opts []holistic.Option, fn *holistic.Func) []int64 {
		t.Helper()
		res, err := holistic.RunWith(tab, w, []*holistic.Func{fn.As("x")}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, tab.Rows())
		for i := range out {
			out[i] = res.Column("x").Int64(i)
		}
		return out
	}

	mst := run(nil, holistic.CountDistinct("v"))
	naiveDefault := run([]holistic.Option{holistic.WithEngine(holistic.EngineNaive)}, holistic.CountDistinct("v"))
	perFuncWins := run([]holistic.Option{holistic.WithEngine(holistic.EngineNaive)},
		holistic.CountDistinct("v").WithEngine(holistic.EngineMergeSortTree))
	noop := run([]holistic.Option{holistic.WithEngine(holistic.EngineMergeSortTree)}, holistic.CountDistinct("v"))

	for i := range mst {
		if naiveDefault[i] != mst[i] || perFuncWins[i] != mst[i] || noop[i] != mst[i] {
			t.Fatalf("row %d: engines disagree: mst=%d naive-default=%d per-func=%d noop=%d",
				i, mst[i], naiveDefault[i], perFuncWins[i], noop[i])
		}
	}
}

// TestRunSQLWithTrace covers the SQL entry point of the options API.
func TestRunSQLWithTrace(t *testing.T) {
	tab := optionsTable(t)
	root := holistic.NewTrace("sql")
	res, err := holistic.RunSQLWith(
		`select rank(order by v) over (order by d) as r from t`,
		map[string]*holistic.Table{"t": tab},
		holistic.WithTrace(root))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("r") == nil {
		t.Fatal("missing result column")
	}
	if !strings.Contains(root.Render(), "partition+order sort") {
		t.Fatalf("SQL trace missing sort phase:\n%s", root.Render())
	}
}
