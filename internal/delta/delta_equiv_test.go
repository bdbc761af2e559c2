// The mutation-equivalence harness: randomized append/upsert/delete
// interleavings across every window function the operator implements, with
// each epoch's delta-path evaluation required to be byte-identical to a
// from-scratch rebuild over the same merged table. This is the proof
// obligation of the delta design — the incremental sort merge and the
// content+epoch partition re-keying must be invisible in results.
package delta_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/treecache"
)

// tableSchema mirrors core's randomized-test schema plus a unique INT64 key
// column "k" for upserts/deletes.
var tableColumns = []struct {
	name string
	kind core.Kind
}{
	{"k", core.Int64},
	{"g", core.Int64},
	{"d", core.Int64},
	{"v", core.Int64},
	{"fv", core.Float64},
	{"s", core.String},
	{"flt", core.Bool},
}

// randRow draws one row with the given key; value columns get occasional
// NULLs (zero payloads, so model-vs-table comparisons are well defined).
func randRow(rng *rand.Rand, key int64) []delta.Value {
	row := make([]delta.Value, len(tableColumns))
	row[0] = delta.Int64Value(key)
	row[1] = delta.Int64Value(rng.Int63n(3)) // g
	row[2] = delta.Int64Value(rng.Int63n(40))
	if rng.Intn(15) == 0 {
		row[2] = delta.NullValue(core.Int64) // d
	}
	row[3] = delta.Int64Value(rng.Int63n(12))
	if rng.Intn(10) == 0 {
		row[3] = delta.NullValue(core.Int64) // v
	}
	row[4] = delta.Float64Value(float64(rng.Intn(50)) / 2)
	if rng.Intn(10) == 0 {
		row[4] = delta.NullValue(core.Float64) // fv
	}
	row[5] = delta.StringValue(string(rune('a' + rng.Intn(6))))
	if rng.Intn(12) == 0 {
		row[5] = delta.NullValue(core.String) // s
	}
	row[6] = delta.BoolValue(rng.Intn(4) != 0)
	if rng.Intn(20) == 0 {
		row[6] = delta.NullValue(core.Bool) // flt
	}
	return row
}

// buildTable assembles a core.Table from value rows in the test schema.
func buildTable(t testing.TB, rows [][]delta.Value) *core.Table {
	t.Helper()
	n := len(rows)
	cols := make([]*core.Column, len(tableColumns))
	for ci, tc := range tableColumns {
		nulls := make([]bool, n)
		any := false
		for ri, row := range rows {
			nulls[ri] = row[ci].Null
			any = any || row[ci].Null
		}
		if !any {
			nulls = nil
		}
		switch tc.kind {
		case core.Int64:
			vals := make([]int64, n)
			for ri, row := range rows {
				vals[ri] = row[ci].Int
			}
			cols[ci] = core.NewInt64Column(tc.name, vals, nulls)
		case core.Float64:
			vals := make([]float64, n)
			for ri, row := range rows {
				vals[ri] = row[ci].Float
			}
			cols[ci] = core.NewFloat64Column(tc.name, vals, nulls)
		case core.String:
			vals := make([]string, n)
			for ri, row := range rows {
				vals[ri] = row[ci].Str
			}
			cols[ci] = core.NewStringColumn(tc.name, vals, nulls)
		default:
			vals := make([]bool, n)
			for ri, row := range rows {
				vals[ri] = row[ci].Bool
			}
			cols[ci] = core.NewBoolColumn(tc.name, vals, nulls)
		}
	}
	return core.MustNewTable(cols...)
}

// randFrame mirrors core's randomized frame generator (per-row offset
// expressions included — they hash the original row index, which the delta
// and from-scratch paths agree on by construction).
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

// allFuncSpecs builds one spec per window function with randomized knobs —
// the full surface the equivalence obligation covers.
func allFuncSpecs(rng *rand.Rand) []core.FuncSpec {
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
		{Name: core.Max, Output: "o6", Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Output: "o7", Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Output: "o7s", Arg: "s"},
		{Name: core.SumDistinct, Output: "o8", Arg: "v"},
		{Name: core.SumDistinct, Output: "o8f", Arg: "fv", Filter: maybeFilter()},
		{Name: core.AvgDistinct, Output: "o9", Arg: "v"},
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

// randMutations draws a valid batch against the live key set, mutating it.
func randMutations(rng *rand.Rand, live *[]int64, nextKey *int64, n int) []delta.Mutation {
	muts := make([]delta.Mutation, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(10)
		switch {
		case r < 3 || len(*live) == 0: // append a fresh key
			k := *nextKey
			*nextKey++
			muts = append(muts, delta.Mutation{Op: delta.OpAppend, Row: randRow(rng, k)})
			*live = append(*live, k)
		case r < 7: // upsert an existing key (possibly moving partitions)
			k := (*live)[rng.Intn(len(*live))]
			muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: randRow(rng, k)})
		case r < 8: // upsert a fresh key (append via upsert)
			k := *nextKey
			*nextKey++
			muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: randRow(rng, k)})
			*live = append(*live, k)
		default: // delete an existing key
			i := rng.Intn(len(*live))
			k := (*live)[i]
			*live = append((*live)[:i], (*live)[i+1:]...)
			muts = append(muts, delta.Mutation{Op: delta.OpDelete, Row: randRow(rng, k)})
		}
	}
	return muts
}

// requireColumnsIdentical asserts two result columns agree bit for bit —
// floats compared by Float64bits, not tolerance.
func requireColumnsIdentical(t *testing.T, got, want *core.Column, label string) {
	t.Helper()
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: shape (%v,%d) vs (%v,%d)", label, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s row %d: null=%v, want %v", label, i, got.IsNull(i), want.IsNull(i))
		}
		if got.IsNull(i) {
			continue
		}
		switch got.Kind() {
		case core.Int64:
			if got.Int64(i) != want.Int64(i) {
				t.Fatalf("%s row %d: %d != %d", label, i, got.Int64(i), want.Int64(i))
			}
		case core.Float64:
			if math.Float64bits(got.Float64(i)) != math.Float64bits(want.Float64(i)) {
				t.Fatalf("%s row %d: %v (%#x) != %v (%#x)", label, i,
					got.Float64(i), math.Float64bits(got.Float64(i)),
					want.Float64(i), math.Float64bits(want.Float64(i)))
			}
		case core.String:
			if got.StringAt(i) != want.StringAt(i) {
				t.Fatalf("%s row %d: %q != %q", label, i, got.StringAt(i), want.StringAt(i))
			}
		default:
			if got.Bool(i) != want.Bool(i) {
				t.Fatalf("%s row %d: %v != %v", label, i, got.Bool(i), want.Bool(i))
			}
		}
	}
}

// TestDeltaEquivalenceRandomized is the harness proper: random mutation
// interleavings, and after every batch the delta evaluation (shared cache
// across epochs, so stale reuse would be caught) must equal a cache-free
// from-scratch evaluation of the same merged table, for all 22 functions,
// under every tree variant.
func TestDeltaEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// The non-default shapes exercise treeSig's f/k components: delta
	// re-keys (pk=…|pd<stamp>) survive across epochs, so a tree of one shape
	// aliasing another's entry would surface here as a wrong answer.
	treeVariants := []mst.Options{{}, {Fanout: 2, SampleEvery: 1}, {Fanout: 8, SampleEvery: 8}}
	for trial := 0; trial < 8; trial++ {
		nBase := []int{0, 3, 20, 45}[trial%4]
		var rows [][]delta.Value
		nextKey := int64(0)
		var live []int64
		for i := 0; i < nBase; i++ {
			rows = append(rows, randRow(rng, nextKey))
			live = append(live, nextKey)
			nextKey++
		}
		base := buildTable(t, rows)
		buf, err := delta.NewBuffer(base, "k", delta.Options{})
		if err != nil {
			t.Fatalf("trial %d: NewBuffer: %v", trial, err)
		}
		fs := randFrame(rng)
		w := &core.WindowSpec{
			OrderBy:  []core.SortKey{{Column: "d", Desc: rng.Intn(2) == 0}},
			Frame:    fs,
			FrameSet: true,
			Funcs:    allFuncSpecs(rng),
		}
		if rng.Intn(2) == 0 {
			w.PartitionBy = []string{"g"}
		}
		tv := treeVariants[trial%len(treeVariants)]
		cache := treecache.New(0)
		for batch := 0; batch < 8; batch++ {
			muts := randMutations(rng, &live, &nextKey, 1+rng.Intn(6))
			if _, err := buf.Apply(-1, muts); err != nil {
				t.Fatalf("trial %d batch %d: Apply: %v", trial, batch, err)
			}
			if batch == 5 {
				// Fold the overlay into a new generation mid-stream: later
				// batches then exercise the delta path on generation > 0.
				if _, _, err := buf.Compact(); err != nil {
					t.Fatalf("trial %d batch %d: Compact: %v", trial, batch, err)
				}
			}
			snap := buf.Snapshot()
			if err := snap.Verify(); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
			}
			tab, err := snap.Table()
			if err != nil {
				t.Fatalf("trial %d batch %d: Table: %v", trial, batch, err)
			}
			view, err := snap.View()
			if err != nil {
				t.Fatalf("trial %d batch %d: View: %v", trial, batch, err)
			}
			deltaOpt := core.Options{
				Tree: tv, TaskSize: 16,
				Cache:      cache,
				CacheScope: fmt.Sprintf("eq@v1|g%d", snap.Gen()),
				Delta:      view,
			}
			got, err := core.Run(tab, w, deltaOpt)
			if err != nil {
				t.Fatalf("trial %d batch %d: delta run: %v", trial, batch, err)
			}
			// The oracle is a from-scratch rebuild: no cache, no delta view.
			want, err := core.Run(tab, w, core.Options{Tree: tv, TaskSize: 16})
			if err != nil {
				t.Fatalf("trial %d batch %d: rebuild run: %v", trial, batch, err)
			}
			for i := range w.Funcs {
				f := &w.Funcs[i]
				label := fmt.Sprintf("trial %d batch %d epoch %d gen %d %v (%s)",
					trial, batch, snap.Epoch(), snap.Gen(), f.Name, f.Output)
				requireColumnsIdentical(t, got.Column(f.Output), want.Column(f.Output), label)
			}
		}
	}
}

// TestDeltaUntouchedPartitionCacheReuse pins the point of the content+epoch
// partition keys on a mutating dataset: once a first batch has been applied
// (result vectors are admitted from epoch 1 on, never at epoch 0), a second
// batch touching partition g=0 must find the trees *and* the finished result
// vectors of the untouched partitions g=1..3.
func TestDeltaUntouchedPartitionCacheReuse(t *testing.T) {
	const parts, funcs = 4, 2
	rng := rand.New(rand.NewSource(7))
	var rows [][]delta.Value
	for i := int64(0); i < 120; i++ {
		row := randRow(rng, i)
		row[1] = delta.Int64Value(i % parts) // g
		rows = append(rows, row)
	}
	base := buildTable(t, rows)
	buf, err := delta.NewBuffer(base, "k", delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	window := func(preceding int64) *core.WindowSpec {
		return &core.WindowSpec{
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Frame: frame.Spec{
				Mode:  frame.Rows,
				Start: frame.Bound{Type: frame.Preceding, Offset: preceding},
				End:   frame.Bound{Type: frame.CurrentRow},
			},
			FrameSet: true,
			Funcs: []core.FuncSpec{
				{Name: core.CountDistinct, Output: "o", Arg: "v"},
				{Name: core.Rank, Output: "r", OrderBy: []core.SortKey{{Column: "v"}}},
			},
		}
	}
	cache := treecache.New(0)
	// query runs the statement at the buffer's current epoch and returns
	// what it added to the cache's hit and miss counters.
	query := func(w *core.WindowSpec) (hits, misses int64) {
		t.Helper()
		snap := buf.Snapshot()
		tab, err := snap.Table()
		if err != nil {
			t.Fatal(err)
		}
		view, err := snap.View()
		if err != nil {
			t.Fatal(err)
		}
		before := cache.Stats()
		opt := core.Options{Cache: cache, CacheScope: fmt.Sprintf("reuse@v1|g%d", snap.Gen()), Delta: view}
		if _, err := core.Run(tab, w, opt); err != nil {
			t.Fatal(err)
		}
		after := cache.Stats()
		return after.Hits - before.Hits, after.Misses - before.Misses
	}
	// mutateG0 upserts key 0, which lives in partition g=0.
	mutateG0 := func() {
		t.Helper()
		row := randRow(rng, 0)
		row[1] = delta.Int64Value(0)
		if _, err := buf.Apply(-1, []delta.Mutation{{Op: delta.OpUpsert, Row: row}}); err != nil {
			t.Fatal(err)
		}
	}

	query(window(5)) // epoch 0: builds every partition's trees, retains no results
	mutateG0()
	_, first := query(window(5)) // epoch 1: g=0's trees, and every partition's first result vector
	mutateG0()
	hits, second := query(window(5)) // epoch 2: g=0 again; g=1..3 are answered from their vectors

	// Both batches rebuild the epoch's sort and stamps and g=0's trees and
	// results; the first also had to compute g=1..3's vectors, the second
	// must not.
	if want := first - (parts-1)*funcs; second != want {
		t.Fatalf("second batch on g=0 built %d entries, first built %d: want %d (the untouched partitions' %d result vectors reused)",
			second, first, want, (parts-1)*funcs)
	}
	if hits < (parts-1)*funcs {
		t.Fatalf("second batch hit the cache %d times, want at least the %d result vectors of g=1..3", hits, (parts-1)*funcs)
	}
	// A frame nobody has asked for misses every result vector and nothing
	// else: all trees — g=1..3's from epoch 0, g=0's from this epoch — and
	// the epoch's sort are found.
	if _, misses := query(window(9)); misses != parts*funcs {
		t.Fatalf("a new frame at a seen epoch built %d entries, want %d result vectors and no tree", misses, parts*funcs)
	}
}

// keyCache is a treecache.Cache that remembers the keys asked of it.
type keyCache struct {
	*treecache.Cache
	mu   sync.Mutex
	keys map[string]bool
}

func (c *keyCache) GetOrBuild(key string, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	c.keys[key] = true
	c.mu.Unlock()
	return c.Cache.GetOrBuild(key, build)
}

// resident counts the keys asked so far that contain every one of subs and
// that the cache still holds.
func (c *keyCache) resident(subs ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
next:
	for k := range c.keys {
		for _, sub := range subs {
			if !strings.Contains(k, sub) {
				continue next
			}
		}
		if _, err := c.Cache.GetOrBuild(k, func() (any, int64, error) { return nil, 0, errors.New("not resident") }); err == nil {
			n++
		}
	}
	return n
}

// TestDeltaWiderFrameAfterMutation: a statement whose frames span at most
// mst.LeafRows rows builds its count, rank, dense-rank and int64
// DISTINCT-sum structures leaf-only, under the delta path's pk=…|pd<stamp>
// keys, which outlive the epoch. Mutating one partition and then asking a
// wider frame — of the mutated partition and of the untouched one whose
// leaf-only entries are still cached — must build full structures beside
// them, never read the leaf-only ones; and the reverse order must reuse
// nothing wrongly either. Every answer equals a from-scratch evaluation, and
// the cache ends up holding all three width classes.
func TestDeltaWiderFrameAfterMutation(t *testing.T) {
	const parts = 2
	window := func(preceding int64) *core.WindowSpec {
		return &core.WindowSpec{
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Frame: frame.Spec{
				Mode:  frame.Rows,
				Start: frame.Bound{Type: frame.Preceding, Offset: preceding},
				End:   frame.Bound{Type: frame.CurrentRow},
			},
			FrameSet: true,
			Funcs: []core.FuncSpec{
				{Name: core.CountDistinct, Output: "cd", Arg: "v"},
				{Name: core.SumDistinct, Output: "sd", Arg: "v"},
				{Name: core.Rank, Output: "r", OrderBy: []core.SortKey{{Column: "v"}}},
				{Name: core.DenseRank, Output: "dr", OrderBy: []core.SortKey{{Column: "v"}}},
				{Name: core.PercentileDisc, Output: "p", Fraction: 0.5, OrderBy: []core.SortKey{{Column: "v"}}},
			},
		}
	}
	const narrow, wide = 40, 200
	for _, order := range [][2]int64{{narrow, wide}, {wide, narrow}} {
		rng := rand.New(rand.NewSource(31))
		var rows [][]delta.Value
		for i := int64(0); i < 300; i++ {
			row := randRow(rng, i)
			row[1] = delta.Int64Value(i % parts)      // g: 150 rows each
			row[3] = delta.Int64Value(rng.Int63n(12)) // v never NULL: the DISTINCT trees keep all 150
			rows = append(rows, row)
		}
		buf, err := delta.NewBuffer(buildTable(t, rows), "k", delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache := &keyCache{Cache: treecache.New(0), keys: map[string]bool{}}
		query := func(preceding int64) {
			t.Helper()
			snap := buf.Snapshot()
			tab, err := snap.Table()
			if err != nil {
				t.Fatal(err)
			}
			view, err := snap.View()
			if err != nil {
				t.Fatal(err)
			}
			w := window(preceding)
			got, err := core.Run(tab, w, core.Options{Cache: cache, CacheScope: fmt.Sprintf("wider@v1|g%d", snap.Gen()), Delta: view})
			if err != nil {
				t.Fatalf("%d then %d PRECEDING, epoch %d, %d PRECEDING: %v", order[0], order[1], snap.Epoch(), preceding, err)
			}
			want, err := core.Run(tab, w, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.Funcs {
				f := &w.Funcs[i]
				requireColumnsIdentical(t, got.Column(f.Output), want.Column(f.Output),
					fmt.Sprintf("%d then %d PRECEDING, epoch %d, %d PRECEDING %s", order[0], order[1], snap.Epoch(), preceding, f.Output))
			}
		}
		query(order[0])
		for i := int64(0); i < 6; i += parts { // upsert three rows of g=0
			row := randRow(rng, i)
			row[1], row[3] = delta.Int64Value(0), delta.Int64Value(rng.Int63n(12))
			if _, err := buf.Apply(-1, []delta.Mutation{{Op: delta.OpUpsert, Row: row}}); err != nil {
				t.Fatal(err)
			}
		}
		query(order[1])
		query(order[0])
		// Four width-bound structures per partition: count, int64 DISTINCT
		// sum, rank and dense rank, all leaf-only under the narrow frame;
		// under the wide one the count is sliding (a constant-offset ROWS
		// frame) and the other three full. g=0 holds them for both of its
		// contents.
		for _, c := range []struct {
			class string
			per   int
		}{{"w=leaf", 4}, {"w=slide", 1}, {"w=full", 3}} {
			if got := cache.resident("|pd", c.class); got < parts*c.per {
				t.Errorf("%d then %d PRECEDING: the cache holds %d %s structures under delta keys, want at least %d", order[0], order[1], got, c.class, parts*c.per)
			}
		}
	}
}
