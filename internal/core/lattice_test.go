package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/core"
	"holistic/internal/lattice"
	"holistic/internal/oracle"
	"holistic/internal/treecache"
)

// core's part of the lattice is its RAM points: every task size, worker
// cap and leaf cutoff, each statement planned shared and unshared. RAM
// points run back to back and must agree bit for bit, so pooled scratch
// that leaks into retained state, or is assumed zeroed, shows as a
// difference; chunk boundaries inside partitions (task size 16) exercise
// the batch collectors' dedup.
var ram = []lattice.Storage{lattice.RAM}

func TestOperatorAgainstReferenceRandomized(t *testing.T) {
	lattice.Rig{Seed: 42, Trials: 8, Storage: ram}.Run(t)
}

func TestBatchEquivalenceRandomized(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 4
	}
	lattice.Rig{Seed: 777, Trials: trials, Storage: ram}.Run(t)
}

func TestPoolEquivalenceRandomized(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 3
	}
	lattice.Rig{Seed: 321, Trials: trials, Storage: ram}.Run(t)
}

// TestOperatorSoak is the longest sweep. Skipped under -short.
func TestOperatorSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	lattice.Rig{Seed: 20260705, Trials: 12, Storage: ram}.Run(t)
}

// TestCachedRunMatchesUncached runs the full function suite with a structure
// cache and checks that (a) a cold cached run, (b) a warm cached run and
// (c) an uncached run agree bit for bit — all three execute the same
// arithmetic — and that the warm run hit the cache without growing it.
func TestCachedRunMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		tab := lattice.RandTable(rng, []int{7, 25, 60, 2}[trial])
		w := &core.WindowSpec{
			OrderBy:  []core.SortKey{{Column: "d"}},
			Frame:    oracle.RandFrame(rng),
			FrameSet: true,
			Funcs:    lattice.Funcs(rng),
		}
		if trial%2 == 0 {
			w.PartitionBy = []string{"g"}
		}

		plain, err := core.Run(tab, w, core.Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d uncached: %v", trial, err)
		}

		cache := treecache.New(0)
		opt := core.Options{TaskSize: 16, Cache: cache, CacheScope: fmt.Sprintf("tab@v%d", trial)}
		cold, err := core.Run(tab, w, opt)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		// The cold run may already record hits: functions sharing an ORDER BY
		// within one query legitimately share cache entries.
		coldStats := cache.Stats()
		if coldStats.Misses == 0 {
			t.Fatalf("trial %d: cold run built nothing", trial)
		}

		warm, err := core.Run(tab, w, opt)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		warmStats := cache.Stats()
		if warmStats.Hits == 0 {
			t.Fatalf("trial %d: warm run had no cache hits", trial)
		}
		if warmStats.Misses != coldStats.Misses {
			t.Fatalf("trial %d: warm run built %d new structures, want 0",
				trial, warmStats.Misses-coldStats.Misses)
		}

		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d %v (%s)", trial, f.Name, f.Output)
			lattice.RequireIdentical(t, label+" cold", cold.Column(f.Output), plain.Column(f.Output))
			lattice.RequireIdentical(t, label+" warm", warm.Column(f.Output), plain.Column(f.Output))
		}
	}
}

// TestCacheScopeSeparatesVersions checks that bumping the scope bypasses
// entries built under the previous scope: nothing from v1 serves v2, and
// both versions answer alike.
func TestCacheScopeSeparatesVersions(t *testing.T) {
	tab := lattice.RandTable(rand.New(rand.NewSource(3)), 30)
	w := &core.WindowSpec{
		OrderBy: []core.SortKey{{Column: "d"}},
		Funcs:   []core.FuncSpec{{Name: core.Rank, Output: "r", OrderBy: []core.SortKey{{Column: "v"}}}},
	}
	cache := treecache.New(0)
	v1, err := core.Run(tab, w, core.Options{Cache: cache, CacheScope: "t@v1"})
	if err != nil {
		t.Fatal(err)
	}
	after1 := cache.Stats()
	v2, err := core.Run(tab, w, core.Options{Cache: cache, CacheScope: "t@v2"})
	if err != nil {
		t.Fatal(err)
	}
	after2 := cache.Stats()
	if after2.Hits != after1.Hits {
		t.Fatalf("run under a new scope hit %d old entries", after2.Hits-after1.Hits)
	}
	if after2.Misses <= after1.Misses {
		t.Fatal("run under a new scope built nothing")
	}
	lattice.RequireIdentical(t, "v2 against v1", v2.Column("r"), v1.Column("r"))
}

// TestRunCancelledContext checks that a pre-cancelled context aborts Run with
// the context's error before any evaluation.
func TestRunCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := lattice.RandTable(rng, 50)
	w := &core.WindowSpec{
		OrderBy: []core.SortKey{{Column: "d"}},
		Funcs:   lattice.Funcs(rng),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.Run(tab, w, core.Options{TaskSize: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
