package lattice

import (
	"math"
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
// every column but g, special floats in fv and, about one value in twenty,
// an int64 limit or its neighbour in d, the key of the RANGE offsets.
func draw(g oracle.Gen) oracle.Table {
	d := g.Ints("d", 40, 15)
	limits := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for i := range d.Ints {
		if g.Rng.Intn(20) == 0 {
			d.Ints[i] = limits[g.Rng.Intn(len(limits))]
		}
	}
	return oracle.Table{g.Ints("g", 3, 0), d, g.Ints("v", 12, 10),
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

// RandTable draws an n-row table of RandRow rows keyed 0..n-1. A row whose
// d is an int64 limit or its neighbour is followed by its partner
// (MinInt64 and MinInt64+1, MaxInt64-1 and MaxInt64) with the same g and s,
// so the two values one apart at each limit share a partition far more
// often than independent draws put them there, and RANGE offsets of 0 and 1
// must tell them apart.
func RandTable(rng *rand.Rand, n int) *core.Table {
	rows := make([][]delta.Value, n)
	for i := range rows {
		rows[i] = RandRow(rng, int64(i))
	}
	for i := 0; i+1 < n; i++ { // a row is k, g, d, v, fv, s, flt
		if d := rows[i][2]; !d.Null && (d.Int <= math.MinInt64+1 || d.Int >= math.MaxInt64-1) {
			rows[i+1][1], rows[i+1][2], rows[i+1][5] = rows[i][1], delta.Int64Value(d.Int^1), rows[i][5]
			i++
		}
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
// stamp rests on its row count alone.
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
// knobs: function ORDER BY, FILTER, IGNORE NULLS, N and fractions. LAG(flt)
// is the one BOOL output, so every point checks that kind too.
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
		{Name: core.Max, Output: "o6f", Arg: "fv"},
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
		{Name: core.Lag, Output: "o23", Arg: "flt", N: int64(1 + rng.Intn(2)), OrderBy: pick(ordV, ordDV)},
	}
}

// statement spreads Funcs over seven windows. Six share one partitioning:
// equal windows under different listings of it, a two-key order the one-key
// ones prefix, an unordered window, one ordered by v and one by a STRING then
// a FLOAT64 key. The seventh orders the whole table by d the other way, so
// RANGE offsets meet d's int64 limits in both directions and in one
// partition. Each function takes a frame of its own.
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
		{part, []core.SortKey{{Column: "s", Desc: true}, {Column: "fv", NullsSmallest: rng.Intn(2) == 0}}},
		{nil, []core.SortKey{{Column: "d", Desc: !d.Desc, NullsSmallest: d.NullsSmallest}}},
	}
	stmt := &plan.Statement{Table: "t"}
	for _, f := range Funcs(rng) {
		w := windows[rng.Intn(len(windows))]
		f.Frame = randFrame(rng, w.order)
		stmt.Items = append(stmt.Items, plan.Item{Name: f.Output, PartitionBy: w.part, OrderBy: w.order, Func: &f})
	}
	return stmt
}

// fields are what a neighbour statement changes in one item, each a field
// the item's result depends on. "shared window ORDER BY" is "window ORDER
// BY" with the item kept beside its refinement, both over one sort
// (bothWindows).
var fields = []string{"fraction", "N", "frame offset", "EXCLUDE", "FILTER", "IGNORE NULLS", "function ORDER BY", "window ORDER BY", "shared window ORDER BY"}

// edit sets the field of item to another value and reports whether item
// has the field; it draws from rng only when it does.
func edit(rng *rand.Rand, field string, item *plan.Item) bool {
	f, fr := item.Func, item.Func.Frame
	percentile := f.Name == core.PercentileDisc || f.Name == core.PercentileCont
	switch field {
	case "fraction":
		if !percentile {
			return false
		}
		f.Fraction = float64((int(math.Round(f.Fraction*100))+1+rng.Intn(100))%101) / 100
	case "N":
		if f.Name != core.Ntile && f.Name != core.NthValue && f.Name != core.Lead && f.Name != core.Lag {
			return false
		}
		f.N = max(f.N, 1)%3 + 1 // LEAD and LAG read an N of 0 as 1
	case "frame offset":
		if fr == nil {
			return false
		}
		var offsets []*frame.Bound
		for _, b := range []*frame.Bound{&fr.Start, &fr.End} {
			if b.Type == frame.Preceding || b.Type == frame.Following {
				offsets = append(offsets, b)
			}
		}
		if len(offsets) == 0 {
			return false
		}
		offsets[rng.Intn(len(offsets))].Offset ^= 1
	case "EXCLUDE":
		if fr == nil {
			return false
		}
		fr.Exclude = (fr.Exclude + frame.Exclusion(1+rng.Intn(3))) % 4
	case "FILTER":
		f.Filter = map[string]string{"": "flt", "flt": ""}[f.Filter]
	case "IGNORE NULLS":
		if f.Name != core.NthValue && f.Name != core.FirstValue && f.Name != core.LastValue && f.Name != core.Lead && f.Name != core.Lag {
			return false
		}
		f.IgnoreNulls = !f.IgnoreNulls
	case "function ORDER BY":
		if len(f.OrderBy) == 0 {
			return false
		}
		orders := [][]core.SortKey{{{Column: "v"}}, {{Column: "v", Desc: true}}, {{Column: "fv"}}, {{Column: "fv", Desc: true}}}
		if !percentile {
			orders = append(orders, []core.SortKey{{Column: "d"}, {Column: "v", Desc: true}})
		}
		orders = slices.DeleteFunc(orders, func(o []core.SortKey) bool { return slices.Equal(o, f.OrderBy) })
		f.OrderBy = orders[rng.Intn(len(orders))]
	case "window ORDER BY", "shared window ORDER BY": // a refinement: one more key
		if fr != nil && fr.NeedsKeys() {
			return false // an offset RANGE frame needs its one key
		}
		cols := slices.DeleteFunc([]string{"d", "v", "fv", "s", "k"}, func(c string) bool {
			return slices.ContainsFunc(item.OrderBy, func(k core.SortKey) bool { return k.Column == c })
		})
		key := core.SortKey{Column: cols[rng.Intn(len(cols))], Desc: rng.Intn(2) == 0}
		item.OrderBy = append(slices.Clip(item.OrderBy), key)
	}
	return true
}

// neighbour returns stmt with one field of one item changed, the oracle's
// answers to it over tab (stmt's answers, want, but for the changed item)
// and the change's name. It tries fields[field] first, then the fields
// after it, each over the items in a random order, and takes the first
// change that changes the item's answers: a cache key that leaves that
// field out then serves a wrong answer. Where no change does, as on an
// empty table, it takes the first change that applies.
func neighbour(rng *rand.Rand, stmt *plan.Statement, field int, tab oracle.Table, want [][]oracle.Value) (*plan.Statement, [][]oracle.Value, string) {
	var next *plan.Statement
	var nextWant [][]oracle.Value
	var change string
	order := rng.Perm(len(stmt.Items))
	for fi := range fields {
		name := fields[(field+fi)%len(fields)]
		for _, i := range order {
			item := stmt.Items[i]
			f := *item.Func
			if f.Frame != nil {
				if f.Frame.Start.OffsetFn != nil || f.Frame.End.OffsetFn != nil {
					continue // per-row offsets keep a result out of the cache
				}
				fr := *f.Frame
				f.Frame = &fr
			}
			item.Func = &f
			if !edit(rng, name, &item) {
				continue
			}
			if name == "shared window ORDER BY" {
				coarse, refined := bothWindows(stmt.Items[i], item)
				got, gotRefined := answer(tab, coarse), answer(tab, refined)
				if differs := !slices.EqualFunc(got, gotRefined, oracle.Identical); differs || next == nil {
					next = &plan.Statement{Table: stmt.Table, Items: append(slices.Clone(stmt.Items), coarse, refined)}
					nextWant, change = append(slices.Clone(want), got, gotRefined), name+" of "+item.Name
					if differs {
						return next, nextWant, change
					}
				}
				continue
			}
			got := answer(tab, item)
			if differs := !slices.EqualFunc(got, want[i], oracle.Identical); differs || next == nil {
				next = &plan.Statement{Table: stmt.Table, Items: slices.Clone(stmt.Items)}
				nextWant = slices.Clone(want)
				next.Items[i], nextWant[i], change = item, got, name+" of "+item.Name
				if differs {
					return next, nextWant, change
				}
			}
		}
	}
	return next, nextWant, change
}

// bothWindows returns item's function over its own window and over
// refined's, the window with one more ORDER BY key, as two items under a
// PARTITION BY no other window takes and a frame the soundness gate passes
// (DESIGN.md §14.2): a ROWS frame or an offset RANGE one becomes GROUPS with
// the same bounds. The planner then runs both windows over the refined sort,
// so their result entries share a partition id, and only the window ORDER BY
// in the key tells them apart: wherever the extra key splits a peer group,
// their answers differ.
func bothWindows(item, refined plan.Item) (plan.Item, plan.Item) {
	items := [2]plan.Item{item, refined}
	for i, suffix := range []string{"c", "r"} {
		f := *refined.Func
		if f.Frame != nil && (f.Frame.Mode == frame.Rows || f.Frame.NeedsKeys()) {
			fr := *f.Frame
			fr.Mode = frame.Groups
			f.Frame = &fr
		}
		f.Output = item.Name + suffix
		items[i].Name, items[i].PartitionBy, items[i].Func = f.Output, []string{"s"}, &f
	}
	return items[0], items[1]
}

// randFrame draws a frame from oracle.RandFrame, or SQL's default (nil) one
// time in four. A RANGE offset needs a single INT64 key, so an offset RANGE
// frame drawn for a window that is not ordered by one becomes GROUPS with
// the same bounds, and a GROUPS frame drawn for a window that is becomes
// RANGE, where offsets measure key distances and meet d's int64 limits;
// default frames and offset-free RANGE frames are kept for every window.
func randFrame(rng *rand.Rand, order []core.SortKey) *frame.Spec {
	if rng.Intn(4) == 0 {
		return nil
	}
	s := oracle.RandFrame(rng)
	switch {
	case s.NeedsKeys() && !int64Key(order):
		s.Mode = frame.Groups
	case s.Mode == frame.Groups && int64Key(order):
		s.Mode = frame.Range
	}
	return &s
}

// int64Key reports whether order is a single INT64 column of the rigs'
// table.
func int64Key(order []core.SortKey) bool {
	for _, c := range draw(oracle.Gen{}) {
		if len(order) == 1 && c.Name == order[0].Column {
			return c.Kind == oracle.Int64
		}
	}
	return false
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
