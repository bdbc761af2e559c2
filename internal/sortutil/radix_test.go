package sortutil

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/parallel"
)

type pair struct {
	key uint64
	idx int32
}

// checkSortPairs sorts keys (paired with their positions) with SortPairs and
// with the standard library's stable sort and requires identical pairs.
func checkSortPairs(t testing.TB, keys []uint64) {
	t.Helper()
	want := make([]pair, len(keys))
	idx := make([]int32, len(keys))
	for i, k := range keys {
		want[i] = pair{k, int32(i)}
		idx[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	got := slices.Clone(keys)
	if err := SortPairs(nil, got, idx); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got[i] != w.key || idx[i] != w.idx {
			t.Fatalf("n=%d: pair %d = (%#x, %d), want (%#x, %d)", len(keys), i, got[i], idx[i], w.key, w.idx)
		}
	}
}

// TestSortPairs covers the three kernels (insertion, least-significant-first
// passes, split on the top digit) on the key shapes the callers produce, at
// sizes straddling both cutoffs.
func TestSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i, n int) uint64{
		"random":      func(i, n int) uint64 { return rng.Uint64() },
		"sorted":      func(i, n int) uint64 { return uint64(i) },
		"reverse":     func(i, n int) uint64 { return uint64(n - i) },
		"allequal":    func(i, n int) uint64 { return 7 },
		"fewdistinct": func(i, n int) uint64 { return uint64(rng.Intn(3)) << 40 },
		"onebit":      func(i, n int) uint64 { return uint64(rng.Intn(2)) },
		"sparsebytes": func(i, n int) uint64 { return rng.Uint64() & 0xff0000ff000000ff },
		// Two top-digit buckets, each above the cache cutoff at the largest
		// size, so the split recurses onto the next varying digit.
		"skewedtop": func(i, n int) uint64 { return uint64(rng.Intn(2))<<56 | rng.Uint64()&0xffffff },
	}
	sizes := []int{0, 1, 2, smallSortPairs - 1, smallSortPairs, smallSortPairs + 1, 1000,
		cacheSortPairs, cacheSortPairs + 1, 3*cacheSortPairs + 17}
	for name, gen := range shapes {
		for _, n := range sizes {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(i, n)
			}
			t.Run(name, func(t *testing.T) { checkSortPairs(t, keys) })
		}
	}
}

// TestSortPairsCancelled: a context that has ended surfaces as its error
// instead of a finished sort.
func TestSortPairsCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4 * cacheSortPairs
	keys, idx := make([]uint64, n), make([]int32, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SortPairs(ctx, keys, idx); !errors.Is(err, context.Canceled) {
		t.Fatalf("SortPairs on a cancelled context = %v, want context.Canceled", err)
	}
}

// sortAtCap sorts a copy of keys, paired with their positions, under a
// worker cap of workers and returns the pairs.
func sortAtCap(t testing.TB, keys []uint64, workers int) ([]uint64, []int32) {
	t.Helper()
	got, idx := slices.Clone(keys), make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	if err := SortPairs(parallel.ContextWithLimit(context.Background(), workers), got, idx); err != nil {
		t.Fatal(err)
	}
	return got, idx
}

// TestSortPairsWorkerCaps sorts inputs above the cache size, where the
// histogram, the split and the buckets run on the workers, at caps 1, 2 and
// 4 and requires identical pairs at every cap, and cap 1's equal to the
// stable reference sort. The shapes: uniform keys; keys that all share the
// top byte, so the split falls to the next one; Zipf-skewed top bytes, so
// one bucket holds most pairs and is split again on its worker; all equal,
// sorted and reverse.
func TestSortPairsWorkerCaps(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.5, 1, 255)
	shapes := []struct {
		name    string
		gen     func(i, n int) uint64
		largest int
	}{
		{"uniform", func(i, n int) uint64 { return rng.Uint64() }, 1 << 20},
		{"onebucket", func(i, n int) uint64 { return 0xab<<56 | rng.Uint64()>>8 }, 1<<17 + 13},
		{"zipfbuckets", func(i, n int) uint64 { return zipf.Uint64()<<56 | rng.Uint64()>>40 }, 1<<18 + 5},
		{"allequal", func(i, n int) uint64 { return 42 }, 1<<17 + 13},
		{"sorted", func(i, n int) uint64 { return uint64(i) << 20 }, 1<<17 + 13},
		{"reverse", func(i, n int) uint64 { return uint64(n-i) << 20 }, 1<<17 + 13},
	}
	for _, sh := range shapes {
		for _, n := range []int{cacheSortPairs + 1, 1<<17 + 13, sh.largest} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = sh.gen(i, n)
			}
			if n == cacheSortPairs+1 {
				checkSortPairs(t, keys)
			}
			wantK, wantI := sortAtCap(t, keys, 1)
			for _, workers := range []int{2, 4} {
				gotK, gotI := sortAtCap(t, keys, workers)
				if !slices.Equal(gotK, wantK) || !slices.Equal(gotI, wantI) {
					t.Fatalf("%s n=%d: the pairs sorted on %d workers differ from one worker's", sh.name, n, workers)
				}
			}
		}
	}
}

// FuzzSortPairs decodes the input as little-endian keys, optionally masked
// down to a few varying bytes so the constant-digit skip is exercised, and
// requires the stable reference order, and the same pairs under a cap of 1
// and of 4 workers.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128}, uint64(0))
	f.Add(make([]byte, 8*(smallSortPairs+5)), ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:]) &^ mask
		}
		checkSortPairs(t, keys)
		oneK, oneI := sortAtCap(t, keys, 1)
		fourK, fourI := sortAtCap(t, keys, 4)
		if !slices.Equal(oneK, fourK) || !slices.Equal(oneI, fourI) {
			t.Fatalf("%d keys: the pairs sorted under a cap of 4 differ from a cap of 1", len(keys))
		}
	})
}
