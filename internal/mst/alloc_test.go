package mst

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"holistic/internal/arena"
)

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

// TestAllocsCountQueries pins what the count kernel allocates: the headers
// its two pooled scratch buffers go back to the pool in, a constant per call
// however many queries the batch holds, so the operator's 20,000-query probe
// chunks allocate nothing per row. CountBelow, a batch of one, pays that
// constant per query.
func TestAllocsCountQueries(t *testing.T) {
	tr, keys := allocTree(t, 4096)
	n := tr.Len()
	batch := func(m int) float64 {
		lo, hi := make([]int32, m), make([]int32, m)
		thr, out := make([]int64, m), make([]int32, m)
		for q := range lo {
			lo[q], hi[q], thr[q] = int32(q%(n/2)), int32(q%(n/2)+n/2), keys[q%n]
		}
		return testing.AllocsPerRun(50, func() { tr.CountBelowBatch(lo, hi, thr, out) })
	}
	if one, many := batch(1), batch(n); one > 2 || many > one {
		t.Fatalf("a count batch of 1 allocates %.1f objects, of %d %.1f; want at most 2, not growing with the batch", one, n, many)
	}
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
	opt := Options{Context: serialBuild}
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

	at, err := BuildAnnotated(keys, weights, func(a, b int64) int64 { return a + b }, Options{Context: serialBuild})
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
		want, wantCnt := int64(0), 0
		for i := lo[q]; i < min(hi[q], n); i++ {
			if keys[i] < thr[q] {
				want += vals[i]
				wantCnt++
			}
		}
		if okv[q] != (wantCnt > 0) || res[q] != want || int(cnt[q]) != wantCnt {
			t.Errorf("query %d: batch (%d, %v, %d), brute force (%d, %d)", q, res[q], okv[q], cnt[q], want, wantCnt)
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

// TestBuildStopsOnCancelledContext checks that a full build and an annotated
// build under a done context return the context's error, and that every
// merge scratch buffer they took from the int32 pool came back.
func TestBuildStopsOnCancelledContext(t *testing.T) {
	const n = 100_000
	keys := make([]int64, n)
	weights := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 7919 % n)
		weights[i] = int64(i % 13)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Context: ctx}
	before := int32PoolStat(t)
	if _, err := Build(keys, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("Build: err = %v, want context.Canceled", err)
	}
	if _, err := BuildAnnotated(keys, weights, func(a, b int64) int64 { return a + b }, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildAnnotated: err = %v, want context.Canceled", err)
	}
	after := int32PoolStat(t)
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Errorf("int32 pool: %d gets, %d puts across the cancelled builds", gets, puts)
	}
	if _, err := Build(keys, Options{Context: context.Background()}); err != nil {
		t.Errorf("Build under a live context: %v", err)
	}
}
