package lattice

import (
	"math/rand"
	"slices"

	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/frame"
	"holistic/internal/oracle"
	"holistic/internal/plan"
)

// sizes are the trials' table sizes, cycled: tiny tables, one just wider
// than mst.LeafRows, and one whose three g-partitions are all wider. A rig
// of five trials sees the first kind, of six all three.
var sizes = []int{0, 1, 130, 3, 13, 450, 40, 7}

// draw draws the columns of the rigs' table after its key k, with NULLs in
// every column but g and special floats in fv.
func draw(g oracle.Gen) oracle.Table {
	return oracle.Table{g.Ints("g", 3, 0), g.Ints("d", 40, 15), g.Ints("v", 12, 10),
		g.Floats("fv", 10), g.Strings("s", 6, 12), g.Bools("flt", 20)}
}

// RandRow draws one row of the rigs' table with key k = key. A NULL's
// payload is zero.
func RandRow(rng *rand.Rand, key int64) []delta.Value {
	row := []delta.Value{delta.Int64Value(key)}
	for _, c := range draw(oracle.Gen{Rng: rng, N: 1}) {
		v := c.Value(0)
		switch kind := coreKind(c.Kind); {
		case v.Null:
			row = append(row, delta.NullValue(kind))
		case kind == core.Int64:
			row = append(row, delta.Int64Value(v.I))
		case kind == core.Float64:
			row = append(row, delta.Float64Value(v.F))
		case kind == core.String:
			row = append(row, delta.StringValue(v.S))
		default:
			row = append(row, delta.BoolValue(v.B))
		}
	}
	return row
}

// BuildTable assembles rows of the rigs' table into a core.Table; a column
// without NULLs has no mask.
func BuildTable(rows [][]delta.Value) *core.Table {
	cols := append(oracle.Table{{Name: "k", Kind: oracle.Int64}}, draw(oracle.Gen{})...)
	for ci := range cols {
		c := &cols[ci]
		for _, row := range rows {
			v := row[ci]
			c.Nulls = append(c.Nulls, v.Null)
			switch c.Kind {
			case oracle.Int64:
				c.Ints = append(c.Ints, v.Int)
			case oracle.Float64:
				c.Floats = append(c.Floats, v.Float)
			case oracle.String:
				c.Strs = append(c.Strs, v.Str)
			default:
				c.Bools = append(c.Bools, v.Bool)
			}
		}
	}
	return toCore(cols)
}

// RandTable draws an n-row table of RandRow rows keyed 0..n-1.
func RandTable(rng *rand.Rand, n int) *core.Table {
	rows := make([][]delta.Value, n)
	for i := range rows {
		rows[i] = RandRow(rng, int64(i))
	}
	return BuildTable(rows)
}

// RandMutations draws a valid batch of n mutations against the live keys,
// updating them: appends, upserts of live keys (which may move a row to
// another partition) and of fresh ones, and deletes.
func RandMutations(rng *rand.Rand, live *[]int64, nextKey *int64, n int) []delta.Mutation {
	muts := make([]delta.Mutation, 0, n)
	for range n {
		switch r := rng.Intn(10); {
		case r < 3 || len(*live) == 0:
			muts = append(muts, fresh(rng, live, nextKey, delta.OpAppend))
		case r < 7:
			k := (*live)[rng.Intn(len(*live))]
			muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: RandRow(rng, k)})
		case r < 8:
			muts = append(muts, fresh(rng, live, nextKey, delta.OpUpsert))
		default:
			muts = append(muts, drop(rng, live))
		}
	}
	return muts
}

// fresh adds a row under a new key.
func fresh(rng *rand.Rand, live *[]int64, nextKey *int64, op delta.Op) delta.Mutation {
	k := *nextKey
	*nextKey++
	*live = append(*live, k)
	return delta.Mutation{Op: op, Row: RandRow(rng, k)}
}

// drop deletes a live key.
func drop(rng *rand.Rand, live *[]int64) delta.Mutation {
	i := rng.Intn(len(*live))
	k := (*live)[i]
	*live = slices.Delete(*live, i, i+1)
	return delta.Mutation{Op: delta.OpDelete, Row: RandRow(rng, k)}
}

// batch draws one epoch's mutations. Besides mixed batches it draws batches
// that only delete and batches that only add rows to one partition: after
// those a partition can change with no current image to show it, so its
// stamp rests on the removed rows alone.
func batch(rng *rand.Rand, live *[]int64, nextKey *int64) []delta.Mutation {
	var muts []delta.Mutation
	switch r := rng.Intn(4); {
	case r == 0 && len(*live) > 1:
		for range 1 + rng.Intn(2) {
			muts = append(muts, drop(rng, live))
		}
	case r == 1:
		g := delta.Int64Value(rng.Int63n(3))
		for range 1 + rng.Intn(3) {
			muts = append(muts, fresh(rng, live, nextKey, delta.OpAppend))
			muts[len(muts)-1].Row[1] = g
		}
	default:
		muts = RandMutations(rng, live, nextKey, 1+rng.Intn(6))
	}
	return muts
}

// Funcs is one spec per window function and argument kind, with randomized
// knobs: function ORDER BY, FILTER, IGNORE NULLS, N and fractions.
func Funcs(rng *rand.Rand) []core.FuncSpec {
	ordV := []core.SortKey{{Column: "v"}}
	ordVDesc := []core.SortKey{{Column: "v", Desc: true}}
	ordFV := []core.SortKey{{Column: "fv"}}
	ordDV := []core.SortKey{{Column: "d"}, {Column: "v", Desc: true}}
	pick := func(opts ...[]core.SortKey) []core.SortKey { return opts[rng.Intn(len(opts))] }
	maybeFilter := func() string {
		if rng.Intn(3) == 0 {
			return "flt"
		}
		return ""
	}
	ignoreNulls := rng.Intn(3) == 0
	return []core.FuncSpec{
		{Name: core.CountStar, Output: "o1", Filter: maybeFilter()},
		{Name: core.Count, Output: "o2", Arg: "v", Filter: maybeFilter()},
		{Name: core.Sum, Output: "o3", Arg: "v", Filter: maybeFilter()},
		{Name: core.Sum, Output: "o3f", Arg: "fv"},
		{Name: core.Avg, Output: "o4", Arg: "fv", Filter: maybeFilter()},
		{Name: core.Min, Output: "o5", Arg: "s"},
		{Name: core.Min, Output: "o5f", Arg: "fv"},
		{Name: core.Max, Output: "o6", Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Output: "o7", Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Output: "o7s", Arg: "s"},
		{Name: core.SumDistinct, Output: "o8", Arg: "v"},
		{Name: core.SumDistinct, Output: "o8f", Arg: "fv", Filter: maybeFilter()},
		{Name: core.AvgDistinct, Output: "o9", Arg: "v"},
		{Name: core.AvgDistinct, Output: "o9f", Arg: "fv"},
		{Name: core.Rank, Output: "o10", OrderBy: pick(ordV, ordVDesc, ordDV)},
		{Name: core.DenseRank, Output: "o11", OrderBy: pick(ordV, ordVDesc), Filter: maybeFilter()},
		{Name: core.PercentRank, Output: "o12", OrderBy: pick(ordV, ordVDesc)},
		{Name: core.RowNumber, Output: "o13", OrderBy: pick(ordV, ordDV), Filter: maybeFilter()},
		{Name: core.CumeDist, Output: "o14", OrderBy: pick(ordV, ordVDesc)},
		{Name: core.Ntile, Output: "o15", N: int64(1 + rng.Intn(4)), OrderBy: ordV},
		{Name: core.PercentileDisc, Output: "o16", Fraction: float64(rng.Intn(101)) / 100, OrderBy: pick(ordV, ordFV), Filter: maybeFilter()},
		{Name: core.PercentileCont, Output: "o17", Fraction: float64(rng.Intn(101)) / 100, OrderBy: ordFV},
		{Name: core.NthValue, Output: "o18", Arg: "s", N: int64(1 + rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: core.FirstValue, Output: "o19", Arg: "v", OrderBy: pick(ordV, ordDV), Filter: maybeFilter(), IgnoreNulls: ignoreNulls},
		{Name: core.LastValue, Output: "o20", Arg: "fv", OrderBy: ordV},
		{Name: core.Lead, Output: "o21", Arg: "v", N: int64(rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: core.Lag, Output: "o22", Arg: "s", N: int64(rng.Intn(2)), OrderBy: ordV, Filter: maybeFilter()},
	}
}

// statement spreads Funcs over five windows of one partitioning: equal
// windows under different listings of it, a two-key order the one-key ones
// prefix, an unordered window and one ordered by v. Each function takes a
// frame of its own.
func statement(rng *rand.Rand) *plan.Statement {
	part := [][]string{nil, {"g"}, {"g", "s"}}[rng.Intn(3)]
	rev := slices.Clone(part)
	slices.Reverse(rev)
	d := core.SortKey{Column: "d", Desc: rng.Intn(2) == 0, NullsSmallest: rng.Intn(2) == 0}
	windows := []struct {
		part  []string
		order []core.SortKey
	}{
		{part, []core.SortKey{d}},
		{part, []core.SortKey{d, {Column: "v", Desc: true}}},
		{rev, []core.SortKey{d}},
		{part, nil},
		{part, []core.SortKey{{Column: "v"}}},
	}
	stmt := &plan.Statement{Table: "t"}
	for _, f := range Funcs(rng) {
		w := windows[rng.Intn(len(windows))]
		f.Frame = randFrame(rng, w.order)
		stmt.Items = append(stmt.Items, plan.Item{Name: f.Output, PartitionBy: w.part, OrderBy: w.order, Func: &f})
	}
	return stmt
}

// randFrame draws a frame from oracle.RandFrame, or SQL's default (nil) one
// time in four, and draws again until the window's order accepts it: RANGE
// frames and the default frame need a single INT64 key, except that
// without an ORDER BY the default is the whole partition.
func randFrame(rng *rand.Rand, order []core.SortKey) *frame.Spec {
	for {
		var fs *frame.Spec
		if rng.Intn(4) != 0 {
			s := oracle.RandFrame(rng)
			fs = &s
		}
		if len(order) == 1 || fs == nil && len(order) == 0 || fs != nil && fs.Mode != frame.Range {
			return fs
		}
	}
}

// kinds is the oracle's kind for each core Kind, paired by name.
var kinds = [...]oracle.Kind{core.Int64: oracle.Int64, core.Float64: oracle.Float64, core.String: oracle.String, core.Bool: oracle.Bool}

func coreKind(k oracle.Kind) core.Kind { return core.Kind(slices.Index(kinds[:], k)) }

// Column converts a core column to the oracle's form through core's exported
// API.
func Column(c *core.Column) oracle.Column {
	o := oracle.Column{Name: c.Name(), Kind: kinds[c.Kind()], Nulls: make([]bool, c.Len())}
	for i := range c.Len() {
		o.Nulls[i] = c.IsNull(i)
		switch c.Kind() {
		case core.Int64:
			o.Ints = append(o.Ints, c.Int64(i))
		case core.Float64:
			o.Floats = append(o.Floats, c.Float64(i))
		case core.String:
			o.Strs = append(o.Strs, c.StringAt(i))
		default:
			o.Bools = append(o.Bools, c.Bool(i))
		}
	}
	return o
}

// oracleTable converts a core table to the oracle's form.
func oracleTable(t *core.Table) oracle.Table {
	var out oracle.Table
	for _, c := range t.Columns() {
		out = append(out, Column(c))
	}
	return out
}

// toCore converts oracle columns to a core table.
func toCore(cols oracle.Table) *core.Table {
	out := make([]*core.Column, len(cols))
	for i, c := range cols {
		switch coreKind(c.Kind) {
		case core.Int64:
			out[i] = core.NewInt64Column(c.Name, c.Ints, c.Nulls)
		case core.Float64:
			out[i] = core.NewFloat64Column(c.Name, c.Floats, c.Nulls)
		case core.String:
			out[i] = core.NewStringColumn(c.Name, c.Strs, c.Nulls)
		default:
			out[i] = core.NewBoolColumn(c.Name, c.Bools, c.Nulls)
		}
	}
	return core.MustNewTable(out...)
}
