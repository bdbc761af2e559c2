package mst

import (
	"math/rand"
	"testing"

	"holistic/internal/arena"
)

// Steady-state queries — CountBelow, CountRange, SelectKth, AggBelow — must
// not allocate: their descent state lives on the goroutine stack and the
// cascade lookups are pure array arithmetic. These guards pin that property
// so a refactor that makes a closure or descent frame escape fails loudly.

func allocTree(t testing.TB, n int) (*Tree, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n))
	}
	tr, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, keys
}

func TestAllocsCountQueries(t *testing.T) {
	tr, _ := allocTree(t, 4096)
	n := tr.Len()
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		sink += tr.CountBelow(n/8, n-n/8, int64(n/2))
		sink += tr.CountRange(0, n, int64(n/4), int64(3*n/4))
	})
	if allocs != 0 {
		t.Fatalf("count queries allocate %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

func TestAllocsSelectQueries(t *testing.T) {
	tr, _ := allocTree(t, 4096)
	n := tr.Len()
	sink := 0
	var ranges [2][2]int64
	ranges[0] = [2]int64{0, int64(n / 3)}
	ranges[1] = [2]int64{int64(n / 2), int64(n)}
	allocs := testing.AllocsPerRun(200, func() {
		pos, ok := tr.SelectKth(0, int64(n), 17)
		if ok {
			sink += pos
		}
		pos, ok = tr.SelectKthRanges(ranges[:], 5)
		if ok {
			sink += pos
		}
	})
	if allocs != 0 {
		t.Fatalf("select queries allocate %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

func TestAllocsAnnotatedAggBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4096
	keys := make([]int64, n)
	weights := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n))
		weights[i] = rng.Int63n(100)
	}
	at, err := BuildAnnotated(keys, weights, func(a, b int64) int64 { return a + b }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sink int64
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok := at.AggBelow(n/8, n-n/8, int64(n/2)); ok {
			sink += v
		}
	})
	if allocs != 0 {
		t.Fatalf("AggBelow allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

// The build path has a small, documented allocation allowance. With the
// scratch pools warm, a serial build of n=10_000 (3 levels at f=32) performs
// roughly:
//
//   - 2 structs (Tree, tree) + 1 base-payload copy
//   - 2 arena structs + 2 arena chunk slabs (one per element type; the
//     slabs hold every level and sample array)
//   - ~4 appends each for the levels/samples/stride/effLen bookkeeping
//     slices (they start empty and grow a handful of headers)
//
// for about two dozen objects regardless of n. The guard uses a generous
// bound — the point is to catch a return to per-run scratch allocation
// (which costs ~3 allocations per merge run, i.e. thousands at this size),
// not to pin the exact constant.
func TestAllocsBuildSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := make([]int64, 10_000)
	for i := range keys {
		keys[i] = rng.Int63n(int64(len(keys)))
	}
	opt := Options{Serial: true}
	if _, err := Build(keys, opt); err != nil { // warm the pools
		t.Fatal(err)
	}
	var sink *Tree
	allocs := testing.AllocsPerRun(5, func() {
		tr, err := Build(keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		sink = tr
	})
	const allowance = 64
	if allocs > allowance {
		t.Fatalf("serial build allocates %.0f objects/op, allowance is %d — per-run merge scratch is escaping the pools", allocs, allowance)
	}
	_ = sink
}

// TestAnnotatedPoolBalance pins where the annotated tree's integer scratch
// lives: the transient rank inverse of the build and every buffer of
// AggBelowBatch — the clipped thresholds included — come from and return to
// the int32 pool, and nothing is taken from the int64 pool. What
// stays resident (ranks, the threshold map) is accounted by MemBytes.
func TestAnnotatedPoolBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 5000
	keys := make([]int64, n)
	weights := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(n + 1)
		weights[i] = rng.Int63n(100)
	}
	poolStat := func(name string) arena.PoolStat {
		for _, s := range arena.Snapshot() {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no pool named %q", name)
		return arena.PoolStat{}
	}
	i32Before, i64Before := poolStat("int32"), poolStat("int64")

	at, err := BuildAnnotated(keys, weights, func(a, b int64) int64 { return a + b }, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	built := poolStat("int32")
	if gets := built.Gets - i32Before.Gets; gets < 2 || gets != built.Puts-i32Before.Puts {
		t.Fatalf("build: int32 pool gets=%d puts=%d, want the rank inverse and the merge scratch taken and returned",
			gets, built.Puts-i32Before.Puts)
	}
	const m = 256
	lo, hi := make([]int32, m), make([]int32, m)
	thr := make([]int64, m)
	for q := range lo {
		lo[q] = int32(rng.Intn(n))
		hi[q] = lo[q] + int32(rng.Intn(n/4))
		thr[q] = int64(lo[q]) + 1
	}
	at.AggBelowBatch(lo, hi, thr, make([]int64, m), make([]bool, m), make([]int32, m))

	i32After, i64After := poolStat("int32"), poolStat("int64")
	if gets, puts := i32After.Gets-built.Gets, i32After.Puts-built.Puts; gets == 0 || gets != puts || i32After.BytesInFlight != i32Before.BytesInFlight {
		t.Fatalf("AggBelowBatch: int32 pool gets=%d puts=%d bytes_in_flight %d -> %d", gets, puts, i32Before.BytesInFlight, i32After.BytesInFlight)
	}
	if i64After.Gets != i64Before.Gets {
		t.Fatalf("annotated build and batch took %d buffers from the int64 pool, want none", i64After.Gets-i64Before.Gets)
	}
	s := at.t.stats()
	if want := int64(s.Elements*4+s.Pointers*4+s.OriginBytes) + 4*(n+2) + int64(s.Elements*8); s.ElementBytes != 4 || at.MemBytes(8) != want {
		t.Fatalf("MemBytes(8) = %d with %d-byte elements, want %d: 4-byte levels, stripes, the n+2 entry threshold map and 8 bytes per aggregate",
			at.MemBytes(8), s.ElementBytes, want)
	}
}

// TestAggBatchScratchBound pins what a large batch costs in scratch: a
// 20,000-query AggBelowBatch — one probe chunk of the operator — on a
// 33,000-row annotated tree at fanout 16 is answered a sub-batch at a time,
// so it never asks the int32 pool for a buffer above 1 MiB and hands every
// buffer back. In one descent its take list alone ran to 32 MiB, which each
// P's pool then kept.
func TestAggBatchScratchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, m = 33_000, 20_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(64)
	}
	keys := prevIdcsRef(vals)
	at, err := BuildAnnotated(keys, vals, func(a, b int64) int64 { return a + b }, Options{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The DISTINCT probe's shape: a sliding frame per row, threshold lo+1.
	lo, hi := make([]int32, m), make([]int32, m)
	thr := make([]int64, m)
	for q := range lo {
		lo[q] = int32(max(q-10_000, 0))
		hi[q] = int32(q + 1 + rng.Intn(n-m))
		thr[q] = int64(lo[q]) + 1
	}
	const mib = 1 << 20 / 4 // int32 elements in 1 MiB
	before, overBefore := int32PoolStat(t), arena.Int32s.GetsOver(mib)
	res, okv, cnt := make([]int64, m), make([]bool, m), make([]int32, m)
	at.AggBelowBatch(lo, hi, thr, res, okv, cnt)
	after := int32PoolStat(t)
	if over := arena.Int32s.GetsOver(mib) - overBefore; over != 0 {
		t.Errorf("a %d-query batch asked the int32 pool for %d buffers above 1 MiB, want none", m, over)
	}
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts || after.BytesInFlight != before.BytesInFlight {
		t.Errorf("int32 pool gets=%d puts=%d, bytes in flight %d -> %d: every scratch buffer must come back",
			gets, puts, before.BytesInFlight, after.BytesInFlight)
	}
	for _, q := range []int{0, aggSubBatch - 1, aggSubBatch, m - 1} {
		want, wantOK := at.AggBelow(int(lo[q]), int(hi[q]), thr[q])
		if okv[q] != wantOK || res[q] != want {
			t.Errorf("query %d: batch (%d, %v), scalar (%d, %v)", q, res[q], okv[q], want, wantOK)
		}
	}
}

func int32PoolStat(t *testing.T) arena.PoolStat {
	t.Helper()
	for _, s := range arena.Snapshot() {
		if s.Name == "int32" {
			return s
		}
	}
	t.Fatal(`no pool named "int32"`)
	return arena.PoolStat{}
}
