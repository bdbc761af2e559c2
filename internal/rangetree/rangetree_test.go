package rangetree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"holistic/internal/mst"
	"holistic/internal/preprocess"
)

// bruteDenseBelow counts distinct key values smaller than threshold within
// window positions [lo, hi).
func bruteDenseBelow(keys []int64, lo, hi int, threshold int64) int {
	seen := make(map[int64]struct{})
	for p := lo; p < hi; p++ {
		if keys[p] < threshold {
			seen[keys[p]] = struct{}{}
		}
	}
	return len(seen)
}

// bruteCount is the O(n) reference for a dense-rank count query: the window
// positions [lo, hi), clamped to the partition, whose rank is below rankThr
// and whose prevIdx is below prevThr.
func bruteCount(ranks, prevs []int64, lo, hi int, rankThr, prevThr int64) int {
	c := 0
	for j := max(lo, 0); j < min(hi, len(ranks)); j++ {
		if ranks[j] < rankThr && prevs[j] < prevThr {
			c++
		}
	}
	return c
}

// countOne answers one query through CountDistinctBelowBatch.
func countOne(rt *DenseRankTree, lo, hi int, rankThr, prevThr int64) int {
	out := []int32{0}
	rt.CountDistinctBelowBatch([]int32{int32(lo)}, []int32{int32(hi)}, []int64{rankThr}, []int64{prevThr}, out)
	return int(out[0])
}

// buildFromKeys preprocesses raw keys into (denseRanks, prevIdcs) and builds
// the tree, mirroring what the window operator does.
func buildFromKeys(t *testing.T, keys []int64, opt mst.Options) (*DenseRankTree, []int64) {
	t.Helper()
	sorted := preprocess.SortIndicesByKey(keys)
	ranks, _ := preprocess.DenseRanks(sorted, func(a, b int) bool { return keys[a] == keys[b] })
	prev := preprocess.PrevIndices(sorted, func(a, b int) bool { return keys[a] == keys[b] })
	tree, err := New(ranks, prev, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tree, ranks
}

func TestDenseRankAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n)/3 + 2) // plenty of duplicate ranks
		}
		tree, ranks := buildFromKeys(t, keys, mst.Options{})
		for trial := 0; trial < 80; trial++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			var rankTh int64
			if n > 0 {
				row := rng.Intn(n)
				rankTh = ranks[row]
			}
			got := countOne(tree, lo, hi, rankTh, int64(lo)+1)
			// Brute force over dense ranks: distinct ranks < rankTh in frame.
			want := bruteDenseBelow(ranks, lo, hi, rankTh)
			if got != want {
				t.Fatalf("n=%d [%d,%d) rankTh=%d: got %d want %d", n, lo, hi, rankTh, got, want)
			}
		}
	}
}

func TestDenseRankFullQuery(t *testing.T) {
	// End-to-end: dense_rank() over a running frame equals the brute-force
	// SQL semantics (1 + number of distinct smaller keys in frame).
	rng := rand.New(rand.NewSource(2))
	n := 500
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(50)
	}
	tree, ranks := buildFromKeys(t, keys, mst.Options{})
	for i := 0; i < n; i++ {
		lo, hi := 0, i+1 // UNBOUNDED PRECEDING .. CURRENT ROW (rows mode)
		got := 1 + countOne(tree, lo, hi, ranks[i], int64(lo)+1)
		want := 1 + bruteDenseBelow(keys, lo, hi, keys[i])
		if got != want {
			t.Fatalf("row %d: dense_rank %d, want %d", i, got, want)
		}
	}
}

func TestDenseRankSlidingFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	w := 37
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(20)
	}
	tree, ranks := buildFromKeys(t, keys, mst.Options{Fanout: 2, SampleEvery: 1})
	for i := 0; i < n; i++ {
		lo := max(0, i-w+1)
		hi := i + 1
		got := countOne(tree, lo, hi, ranks[i], int64(lo)+1)
		want := bruteDenseBelow(keys, lo, hi, keys[i])
		if got != want {
			t.Fatalf("row %d frame [%d,%d): got %d want %d", i, lo, hi, got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New([]int64{1}, []int64{0, 0}, mst.Options{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	// The nested trees inherit mst's fanout limit.
	ranks := make([]int64, 64)
	var fe *mst.FanoutError
	if _, err := New(ranks, ranks, mst.Options{Fanout: mst.MaxFanout + 1}); !errors.As(err, &fe) {
		t.Fatalf("fanout %d: error %v, want a FanoutError", mst.MaxFanout+1, err)
	}
	// ... and its payload domain: a prevIdx no 32-bit tree can hold.
	prevs := make([]int64, 64)
	prevs[40] = -1
	var pe *mst.PayloadRangeError
	if _, err := New(ranks, prevs, mst.Options{}); !errors.As(err, &pe) || pe.Value != -1 {
		t.Fatalf("negative prevIdx: error %v, want a PayloadRangeError", err)
	}
}

func TestEmpty(t *testing.T) {
	tree, err := New(nil, nil, mst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOne(tree, 0, 10, 5, 1); got != 0 {
		t.Fatalf("empty tree count = %d", got)
	}
}

// TestSizeLimit pins the partition bound New and NewLeaves check before
// sizing anything, at its boundary: MaxRows rows pass, one more is a
// *SizeError, and at the bound the batched walk's node indices, up to
// 2·MaxRows, still fit its int32 scratch.
func TestSizeLimit(t *testing.T) {
	if err := checkInput(MaxRows, MaxRows); err != nil {
		t.Fatalf("%d rows: %v", MaxRows, err)
	}
	var se *SizeError
	if err := checkInput(MaxRows+1, MaxRows+1); !errors.As(err, &se) || se.Rows != MaxRows+1 {
		t.Fatalf("%d rows: error %v, want a *SizeError", MaxRows+1, err)
	}
	if 2*MaxRows > math.MaxInt32 {
		t.Fatalf("node index 2·%d overflows int32", MaxRows)
	}
}

// TestNewStopsOnCancelledContext checks that a build under a done context
// returns the context's error.
func TestNewStopsOnCancelledContext(t *testing.T) {
	const n = 5000
	ranks, prevs := make([]int64, n), make([]int64, n)
	for i := range ranks {
		ranks[i] = int64(i % 97)
		prevs[i] = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ranks, prevs, mst.Options{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("New: err = %v, want context.Canceled", err)
	}
}
