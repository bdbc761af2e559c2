package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/oracle"
	"holistic/internal/treecache"
)

// columnsEqual compares two result columns cell by cell.
func columnsEqual(t *testing.T, label string, got, want *Column) {
	t.Helper()
	for row := 0; row < want.Len(); row++ {
		if got.IsNull(row) != want.IsNull(row) {
			t.Fatalf("%s row %d: null=%v, want %v", label, row, got.IsNull(row), want.IsNull(row))
		}
		if want.IsNull(row) {
			continue
		}
		switch want.Kind() {
		case Int64:
			if got.Int64(row) != want.Int64(row) {
				t.Fatalf("%s row %d: got %d, want %d", label, row, got.Int64(row), want.Int64(row))
			}
		case Float64:
			if !approxEqual(got.Float64(row), want.Float64(row)) {
				t.Fatalf("%s row %d: got %v, want %v", label, row, got.Float64(row), want.Float64(row))
			}
		case String:
			if got.StringAt(row) != want.StringAt(row) {
				t.Fatalf("%s row %d: got %q, want %q", label, row, got.StringAt(row), want.StringAt(row))
			}
		}
	}
}

// TestCachedRunMatchesUncached runs the full function suite with a structure
// cache and checks that (a) a cold cached run, (b) a warm cached run and
// (c) an uncached run all agree cell for cell, and that the warm run
// actually hit the cache without growing it.
func TestCachedRunMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		n := []int{7, 25, 60, 2}[trial]
		tab := randTable(rng, n)
		fs := oracle.RandFrame(rng)
		w := &WindowSpec{
			OrderBy:  []SortKey{{Column: "d"}},
			Frame:    fs,
			FrameSet: true,
		}
		if trial%2 == 0 {
			w.PartitionBy = []string{"g"}
		}
		w.Funcs = allFuncSpecs(rng)

		plain, err := Run(tab, w, Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d uncached: %v", trial, err)
		}

		cache := treecache.New(0)
		opt := Options{TaskSize: 16, Cache: cache, CacheScope: fmt.Sprintf("tab@v%d", trial)}
		cold, err := Run(tab, w, opt)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		// The cold run may already record hits: functions sharing an ORDER BY
		// within one query legitimately share cache entries.
		coldStats := cache.Stats()
		if coldStats.Misses == 0 {
			t.Fatalf("trial %d: cold run built nothing", trial)
		}

		warm, err := Run(tab, w, opt)
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
			columnsEqual(t, label+" cold", cold.Column(f.Output), plain.Column(f.Output))
			columnsEqual(t, label+" warm", warm.Column(f.Output), plain.Column(f.Output))
		}
	}
}

// TestCacheScopeSeparatesVersions checks that bumping the scope bypasses
// entries built under the previous scope: nothing from v1 serves v2.
func TestCacheScopeSeparatesVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randTable(rng, 30)
	w := &WindowSpec{
		OrderBy:  []SortKey{{Column: "d"}},
		FrameSet: false,
		Funcs:    []FuncSpec{{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}}},
	}
	cache := treecache.New(0)
	if _, err := Run(tab, w, Options{Cache: cache, CacheScope: "t@v1"}); err != nil {
		t.Fatal(err)
	}
	after1 := cache.Stats()
	if _, err := Run(tab, w, Options{Cache: cache, CacheScope: "t@v2"}); err != nil {
		t.Fatal(err)
	}
	after2 := cache.Stats()
	if after2.Hits != after1.Hits {
		t.Fatalf("run under a new scope hit %d old entries", after2.Hits-after1.Hits)
	}
	if after2.Misses <= after1.Misses {
		t.Fatal("run under a new scope built nothing")
	}
}

// TestRunCancelledContext checks that a pre-cancelled context aborts Run with
// the context's error before any evaluation.
func TestRunCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randTable(rng, 50)
	w := &WindowSpec{
		OrderBy:  []SortKey{{Column: "d"}},
		FrameSet: false,
		Funcs:    allFuncSpecs(rng),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(tab, w, Options{TaskSize: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
