package rangetree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holistic/internal/mst"
)

// leafSeam runs fn as one subtest per setting of the leaf seam: the
// production cutoff, and off, which decomposes every query.
func leafSeam(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, s := range []struct {
		name string
		rows int
	}{{"leaves", mst.LeafRows}, {"descent", 0}} {
		t.Run(s.name, func(t *testing.T) {
			defer func(saved int) { leafRows = saved }(leafRows)
			leafRows = s.rows
			fn(t)
		})
	}
}

// TestCountDistinctBelowBatchMatchesScalar cross-checks the depth-
// synchronous batched decomposition against per-query CountDistinctBelow
// over randomized data — sliding frames (the grouping fast path; 40 rows and
// one row either side of the leaf cutoff), random frames, clamped ranges and
// out-of-domain thresholds — under both leaf seam settings.
func TestCountDistinctBelowBatchMatchesScalar(t *testing.T) {
	leafSeam(t, testCountDistinctBelowBatchMatchesScalar)
}

func testCountDistinctBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	variants := []mst.Options{
		{},
		{Fanout: 2, SampleEvery: 1},
	}
	for _, opt := range variants {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 1500} {
			ranks := make([]int64, n)
			prevs := make([]int64, n)
			for i := range ranks {
				ranks[i] = int64(rng.Intn(n/3 + 2))
				prevs[i] = int64(rng.Intn(n + 2))
			}
			rt, err := New(ranks, prevs, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := 2*n + 16
			lo := make([]int32, m)
			hi := make([]int32, m)
			rankThr := make([]int64, m)
			prevThr := make([]int64, m)
			for q := 0; q < m; q++ {
				switch q % 4 {
				case 0: // sliding frame
					lo[q] = int32(q / 2)
					hi[q] = int32(q/2 + []int{40, mst.LeafRows - 1, mst.LeafRows, mst.LeafRows + 1}[q/4%4])
					rankThr[q] = int64(q % (n/3 + 2))
					prevThr[q] = int64(q/2) + 1
				case 1: // random in-domain
					lo[q] = int32(rng.Intn(n + 1))
					hi[q] = lo[q] + int32(rng.Intn(n+1))
					rankThr[q] = int64(rng.Intn(n/3 + 3))
					prevThr[q] = int64(rng.Intn(n + 3))
				case 2: // duplicate of the previous query (dedup shape)
					lo[q], hi[q] = lo[q-1], hi[q-1]
					rankThr[q], prevThr[q] = rankThr[q-1], prevThr[q-1]
				default: // clamping and extremes
					lo[q] = int32(rng.Intn(2*n+3) - n - 1)
					hi[q] = int32(rng.Intn(2*n+3) - n - 1)
					rankThr[q] = []int64{-1, 0, math.MaxInt64, 5}[rng.Intn(4)]
					prevThr[q] = []int64{-1, 0, math.MaxInt64, 3}[rng.Intn(4)]
				}
			}
			out := make([]int32, m)
			rt.CountDistinctBelowBatch(lo, hi, rankThr, prevThr, out)
			for q := 0; q < m; q++ {
				want := rt.CountDistinctBelow(int(lo[q]), int(hi[q]), rankThr[q], prevThr[q])
				if int(out[q]) != want {
					t.Fatalf("opt=%+v n=%d query %d: batch(%d,%d,%d,%d)=%d, scalar=%d",
						opt, n, q, lo[q], hi[q], rankThr[q], prevThr[q], out[q], want)
				}
			}
		}
	}
}

// BenchmarkLeafCrossover measures what the leaf rule trades for DENSE_RANK: a
// batched query answered by a scan of the partition arrays ("scan") against
// the same query decomposed into canonical nodes ("descent"), across frame
// widths on both sides of mst.LeafRows. Queries slide in probe order with
// random thresholds, 20,000 to a batch. A range tree holds O(n log n)
// elements plus nested trees, so the largest size is 200,000 rows, not the
// 1M of mst's crossover. EXPERIMENTS.md "Narrow frames at the leaves" has
// the table.
func BenchmarkLeafCrossover(b *testing.B) {
	defer func(saved int) { leafRows = saved }(leafRows)
	const m = 20_000
	for _, n := range []int{2_000, 30_000, 200_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		ranks := make([]int64, n)
		prevs := make([]int64, n)
		last := map[int64]int64{}
		for i := range ranks {
			ranks[i] = rng.Int63n(int64(n)/4 + 1)
			prevs[i] = last[ranks[i]] // shifted: 0 is "no previous occurrence"
			last[ranks[i]] = int64(i) + 1
		}
		rt, err := New(ranks, prevs, mst.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := make([]int32, m), make([]int32, m)
		rankThr, prevThr := make([]int64, m), make([]int64, m)
		out := make([]int32, m)
		for _, w := range []int{16, 32, 64, 128, 256, 512, 1024} {
			for q := range lo {
				a := q * (n - w) / m
				lo[q], hi[q] = int32(a), int32(a+w)
				rankThr[q], prevThr[q] = rng.Int63n(int64(n)/4+1), int64(a)+1
			}
			for _, mode := range []struct {
				name string
				rows int
			}{{"scan", math.MaxInt}, {"descent", 0}} {
				leafRows = mode.rows
				b.Run(fmt.Sprintf("dense/n=%d/w=%d/%s", n, w, mode.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						rt.CountDistinctBelowBatch(lo, hi, rankThr, prevThr, out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/query")
				})
			}
		}
	}
}
