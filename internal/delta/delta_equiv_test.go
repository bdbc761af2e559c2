// The mutation-equivalence tests: the incremental sort merge and the
// content+epoch partition re-keying of the delta path must be invisible in
// results, and must reuse what they may.
package delta_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/frame"
	"holistic/internal/lattice"
	"holistic/internal/treecache"
)

// TestDeltaEquivalenceRandomized is delta's part of the lattice: random
// mutation interleavings — mixed batches, delete-only batches and batches
// into one partition, with a compaction midway — and at every epoch each
// delta point (one structure cache across epochs, so stale reuse would show)
// must equal, bit for bit, a from-scratch RAM evaluation of the merged table
// under its tree shape, for every window function.
func TestDeltaEquivalenceRandomized(t *testing.T) {
	lattice.Rig{Seed: 99, Trials: 5, Epochs: 4, Storage: []lattice.Storage{lattice.RAM, lattice.Delta}}.Run(t)
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
		row := lattice.RandRow(rng, i)
		row[1] = delta.Int64Value(i % parts) // g
		rows = append(rows, row)
	}
	base := lattice.BuildTable(rows)
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
		row := lattice.RandRow(rng, 0)
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
			row := lattice.RandRow(rng, i)
			row[1] = delta.Int64Value(i % parts)      // g: 150 rows each
			row[3] = delta.Int64Value(rng.Int63n(12)) // v never NULL: the DISTINCT trees keep all 150
			rows = append(rows, row)
		}
		buf, err := delta.NewBuffer(lattice.BuildTable(rows), "k", delta.Options{})
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
				lattice.RequireIdentical(t, fmt.Sprintf("%d then %d PRECEDING, epoch %d, %d PRECEDING %s", order[0], order[1], snap.Epoch(), preceding, f.Output),
					got.Column(f.Output), want.Column(f.Output))
			}
		}
		query(order[0])
		for i := int64(0); i < 6; i += parts { // upsert three rows of g=0
			row := lattice.RandRow(rng, i)
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
