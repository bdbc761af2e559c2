package plan_test

import (
	"math/rand"
	"testing"

	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/plan"
)

// BenchmarkEvalMultiFunctionShared measures the shared-plan optimizer's
// payoff on a multi-function statement at 1M rows: five functions over
// three compatible windows — a two-key order, its one-key prefix and an
// unordered window, all under one partition set. The shared plan runs one
// sort, one partition detection, one distinct-count tree and one rank tree;
// NoSharedPlan sorts and builds per window, which is what every statement
// paid before the optimizer.
func BenchmarkEvalMultiFunctionShared(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(4242))
	groups := make([]int64, n)
	dates := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		groups[i] = rng.Int63n(16)
		dates[i] = rng.Int63n(n / 4)
		vals[i] = rng.Int63n(10_000)
	}
	tab := core.MustNewTable(
		core.NewInt64Column("g", groups, nil),
		core.NewInt64Column("d", dates, nil),
		core.NewInt64Column("v", vals, nil),
	)

	gframe := func(before int64) *frame.Spec {
		return &frame.Spec{
			Mode:  frame.Groups,
			Start: frame.Bound{Type: frame.Preceding, Offset: before},
			End:   frame.Bound{Type: frame.CurrentRow},
		}
	}
	part := []string{"g"}
	ordDV := []core.SortKey{{Column: "d"}, {Column: "v"}}
	ordD := []core.SortKey{{Column: "d"}}
	ordV := []core.SortKey{{Column: "v"}}
	stmt := &plan.Statement{Table: "t", Items: []plan.Item{
		{Name: "cd1", PartitionBy: part, OrderBy: ordDV,
			Func: &core.FuncSpec{Name: core.CountDistinct, Output: "cd1", Arg: "v", Frame: gframe(1000)}},
		{Name: "cd2", PartitionBy: part, OrderBy: ordD,
			Func: &core.FuncSpec{Name: core.CountDistinct, Output: "cd2", Arg: "v", Frame: gframe(500)}},
		{Name: "r1", PartitionBy: part, OrderBy: ordD,
			Func: &core.FuncSpec{Name: core.Rank, Output: "r1", OrderBy: ordV,
				Frame: &frame.Spec{Mode: frame.Groups, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}}}},
		{Name: "r2", PartitionBy: part,
			Func: &core.FuncSpec{Name: core.Rank, Output: "r2", OrderBy: ordV}},
		{Name: "s", PartitionBy: part,
			Func: &core.FuncSpec{Name: core.Sum, Output: "s", Arg: "v"}},
	}}
	p, err := plan.Build(stmt)
	if err != nil {
		b.Fatal(err)
	}
	if p.Stats.SortsShared != 2 || p.Stats.TreesShared != 2 {
		b.Fatalf("benchmark plan lost its sharing: %+v", p.Stats)
	}

	for _, bc := range []struct {
		name string
		opt  core.Options
	}{
		{"shared", core.Options{}},
		{"NoSharedPlan", core.Options{NoSharedPlan: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Execute(tab, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
