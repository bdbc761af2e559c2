package mst

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks of the raw data structure, separating build and probe
// cost from the window operator around it (the §6.6 methodology).

func benchKeys(n int) []int64 {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n))
	}
	return keys
}

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		keys := benchKeys(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				if _, err := Build(keys, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCountBelow(b *testing.B) {
	n := 1_000_000
	keys := benchKeys(n)
	frame := n / 20
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"cascading", Options{}},
		{"noCascading", Options{NoCascading: true}},
		{"f2k1", Options{Fanout: 2, SampleEvery: 1}},
	} {
		tree, err := Build(keys, cfg.opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				row := i % n
				lo := row - frame
				if lo < 0 {
					lo = 0
				}
				sink += tree.CountBelow(lo, row+1, keys[row])
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkCountBelowBatch is the batched count probe in the shape the
// window operator gives it for a framed COUNT(DISTINCT) over 1M rows:
// previous-occurrence keys of a skewed 50,000-value column, one query per
// row with threshold = lo+1, issued in probe-chunk batches of 20,000
// adjacent rows. The frames cover the short, the typical and the half-table
// case (ROWS BETWEEN frame-1 PRECEDING AND CURRENT ROW). The rank arm is
// RANK over a column uncorrelated with the window order: a tree over uniform
// keys, the typical frame, and the row's own key as threshold, which jumps
// between rows, so the kernel declines to answer a query from its
// predecessor (count_diff.go) and descends. One op is one pass over all
// rows; the reported ns/row is the per-query cost and diff/row the share
// answered from the predecessor.
func BenchmarkCountBelowBatch(b *testing.B) {
	const n, chunk = 1_000_000, 20_000
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 49_999)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(zipf.Uint64())
	}
	tree, err := Build(prevIdcsRef(vals), Options{})
	if err != nil {
		b.Fatal(err)
	}
	rankKeys := benchKeys(n)
	rankTree, err := Build(rankKeys, Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := make([]int32, chunk), make([]int32, chunk)
	thr := make([]int64, chunk)
	out := make([]int32, chunk)
	for _, arm := range []struct {
		name  string
		frame int
		rank  bool
	}{
		{"frame100", 100, false},
		{"frame10000", 10_000, false},
		{"frame500000", n / 2, false},
		{"rank10000", 10_000, true},
	} {
		tr := tree
		if arm.rank {
			tr = rankTree
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			diffs := 0
			for i := 0; i < b.N; i++ {
				for start := 0; start < n; start += chunk {
					for q := range out {
						row := start + q
						a := max(row-arm.frame+1, 0)
						lo[q], hi[q], thr[q] = int32(a), int32(row+1), int64(a)+1
						if arm.rank {
							thr[q] = rankKeys[row]
						}
					}
					_, d := tr.CountBelowBatch(lo, hi, thr, out)
					diffs += d
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			b.ReportMetric(float64(diffs)/float64(b.N)/n, "diff/row")
		})
	}
}

// BenchmarkSelectKthRangesBatch is the batched select probe in the shape the
// window operator gives it for a framed percentile over 200k rows: the payload
// is the permutation array (§4.5), one query per row selecting the entry at
// the given fraction of a sliding value range of the given width (ROWS
// BETWEEN width-1 PRECEDING AND CURRENT ROW), issued in probe-chunk batches of
// 20,000 adjacent rows. The exclude arm centres its frame on the row under
// EXCLUDE TIES with peer groups of four rows: three ranges per query. The jump
// arm draws a random frame per query, so the kernel declines to answer a
// query from its predecessor (select_diff.go) and descends. One op is one pass
// over all rows; the reported ns/row is the per-query cost and diff/row the
// share answered from the predecessor.
func BenchmarkSelectKthRangesBatch(b *testing.B) {
	const n, chunk = 200_000, 20_000
	rng := rand.New(rand.NewSource(1))
	perm := make([]int64, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int64(p)
	}
	tree, err := Build(perm, Options{})
	if err != nil {
		b.Fatal(err)
	}
	jumps := make([]int, n)
	for i := range jumps {
		jumps[i] = rng.Intn(n)
	}
	off := make([]int32, chunk+1)
	vlo, vhi := make([]int64, 3*chunk), make([]int64, 3*chunk)
	k := make([]int32, chunk)
	out := make([]int32, chunk)
	for _, arm := range []struct {
		name     string
		width    int
		fraction float64
		exclude  bool
		jump     bool
	}{
		{"width500", 500, 0.5, false, false},
		{"width500_f0.05", 500, 0.05, false, false},
		{"width500_f0.95", 500, 0.95, false, false},
		{"width1200", 1_200, 0.5, false, false},
		{"width2000", 2_000, 0.5, false, false},
		{"width2000_f0.05", 2_000, 0.05, false, false},
		{"width2000_f0.95", 2_000, 0.95, false, false},
		{"width100000", n / 2, 0.5, false, false},
		{"exclude2000", 2_000, 0.5, true, false},
		{"jump2000", 2_000, 0.5, false, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			diffs := 0
			for i := 0; i < b.N; i++ {
				for start := 0; start < n; start += chunk {
					w := 0
					push := func(lo, hi int) {
						vlo[w], vhi[w] = int64(lo), int64(hi)
						w++
					}
					for q := range out {
						row := start + q
						size := 0
						switch {
						case arm.jump:
							a := jumps[row] % (n - arm.width)
							push(a, a+arm.width)
							size = arm.width
						case arm.exclude:
							a, e := max(row-arm.width/2, 0), min(row+arm.width/2+1, n)
							g0 := row / 4 * 4
							g1 := min(g0+4, e)
							push(a, g0)
							push(row, row+1)
							push(g1, e)
							size = g0 - a + 1 + e - g1
						default:
							a := max(row-arm.width+1, 0)
							push(a, row+1)
							size = row + 1 - a
						}
						off[q+1] = int32(w)
						k[q] = int32(arm.fraction * float64(size-1))
					}
					diffs += tree.SelectKthRangesBatch(off, vlo[:w], vhi[:w], k, out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			b.ReportMetric(float64(diffs)/float64(b.N)/n, "diff/row")
		})
	}
}

// BenchmarkAggBelowBatch is the batched aggregate probe in the shape a
// framed SUM(DISTINCT) gives it: previous-occurrence keys of a skewed
// 50,000-value column over 200k rows, threshold = lo+1, the same chunking
// and frames as BenchmarkCountBelowBatch.
func BenchmarkAggBelowBatch(b *testing.B) {
	const n, chunk = 200_000, 20_000
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 49_999)
	vals := make([]int64, n)
	aggVals := make([]float64, n)
	for i := range vals {
		vals[i] = int64(zipf.Uint64())
		aggVals[i] = float64(vals[i])
	}
	at, err := BuildAnnotated(prevIdcsRef(vals), aggVals, func(a, b float64) float64 { return a + b }, Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := make([]int32, chunk), make([]int32, chunk)
	thr := make([]int64, chunk)
	res := make([]float64, chunk)
	ok := make([]bool, chunk)
	cnt := make([]int32, chunk)
	for _, frame := range []int{100, 10_000, n / 2} {
		b.Run(fmt.Sprintf("frame%d", frame), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for start := 0; start < n; start += chunk {
					for q := range res {
						row := start + q
						a := max(row-frame+1, 0)
						lo[q], hi[q], thr[q] = int32(a), int32(row+1), int64(a)+1
					}
					at.AggBelowBatch(lo, hi, thr, res, ok, cnt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
