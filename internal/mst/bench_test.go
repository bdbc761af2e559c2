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

// skewedColumn is a column of n values drawn from a Zipf distribution over
// 50,000 values, the shape of the benchmark's COUNT(DISTINCT) argument; its
// previous-occurrence keys (prevIdcsRef) are what that function's tree is
// built over.
func skewedColumn(n int) []int64 {
	zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.1, 1, 49_999)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(zipf.Uint64())
	}
	return vals
}

// BenchmarkBuild times construction over n keys: uniform keys in the full
// form, and the previous-occurrence keys of a skewed column — a
// COUNT(DISTINCT) tree — in the full form and in the sliding form a
// constant-offset ROWS frame gets.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		prev := prevIdcsRef(skewedColumn(n))
		for _, arm := range []struct {
			name string
			keys []int64
			form Form
		}{
			{"uniform", benchKeys(n), Full},
			{"prevIdcs", prev, Full},
			{"prevIdcs-slide", prev, Sliding},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					if _, err := BuildForm(arm.keys, Options{}, arm.form); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
// predecessor (count_diff.go) and descends. The slide arm is the typical
// frame on the sliding form of the COUNT(DISTINCT) tree, where the first
// query of every chunk scans level 0 instead of descending. One op is one
// pass over all rows; the reported ns/row is the per-query cost and diff/row
// the share answered from the predecessor.
func BenchmarkCountBelowBatch(b *testing.B) {
	const n, chunk = 1_000_000, 20_000
	prev := prevIdcsRef(skewedColumn(n))
	tree, err := Build(prev, Options{})
	if err != nil {
		b.Fatal(err)
	}
	slideTree, err := BuildForm(prev, Options{}, Sliding)
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
		slide bool
	}{
		{"frame100", 100, false, false},
		{"frame10000", 10_000, false, false},
		{"frame500000", n / 2, false, false},
		{"rank10000", 10_000, true, false},
		{"slide10000", 10_000, false, true},
	} {
		tr := tree
		if arm.rank {
			tr = rankTree
		} else if arm.slide {
			tr = slideTree
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
// and frames as BenchmarkCountBelowBatch. The frame arms probe a tree of
// float64 states under a generic merge (BuildAnnotated). The lanes/ arms
// probe what core builds for a float SUM(DISTINCT) over cents prices: the
// value's cents as a price, cut into L = 3 int64 lanes (floatLanes), one
// sum tree per lane over shared keys (BuildSum, Lane), each probed per
// chunk. The sum/ arms probe an int64 sum's tree (BuildSum) with the narrow
// frames of multi_partitioned_200k, which it answers from each query's
// predecessor (agg_diff.go); diff/row is the share answered so.
func BenchmarkAggBelowBatch(b *testing.B) {
	const n, chunk = 200_000, 20_000
	vals := skewedColumn(n)
	keys := prevIdcsRef(vals)
	aggVals := make([]float64, n)
	for i, v := range vals {
		aggVals[i] = float64(v)
	}
	at, err := BuildAnnotated(keys, aggVals, func(a, b float64) float64 { return a + b }, Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := BuildSum(keys, vals, Options{}, Full)
	if err != nil {
		b.Fatal(err)
	}
	prices := make([]float64, n)
	for i, v := range vals {
		prices[i] = float64(v) / 100
	}
	priceLanes, _ := floatLanes(prices)
	if len(priceLanes) != 3 {
		b.Fatalf("cents prices take %d lanes, want 3", len(priceLanes))
	}
	lanes := make([]*AnnotatedTree[int64], len(priceLanes))
	if lanes[0], err = BuildSum(keys, priceLanes[0], Options{}, Full); err != nil {
		b.Fatal(err)
	}
	for l := 1; l < len(lanes); l++ {
		if lanes[l], err = lanes[0].Lane(priceLanes[l], Options{}); err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := make([]int32, chunk), make([]int32, chunk)
	thr := make([]int64, chunk)
	res, sums := make([]float64, chunk), make([]int64, chunk)
	ok := make([]bool, chunk)
	cnt := make([]int32, chunk)
	probe := func(b *testing.B, frame int, answer func() (leaves, diffs int)) {
		b.ReportAllocs()
		diffs := 0
		for i := 0; i < b.N; i++ {
			for start := 0; start < n; start += chunk {
				for q := range lo {
					row := start + q
					a := max(row-frame+1, 0)
					lo[q], hi[q], thr[q] = int32(a), int32(row+1), int64(a)+1
				}
				_, d := answer()
				diffs += d
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		b.ReportMetric(float64(diffs)/float64(b.N)/n, "diff/row")
	}
	for _, frame := range []int{100, 10_000, n / 2} {
		b.Run(fmt.Sprintf("frame%d", frame), func(b *testing.B) {
			probe(b, frame, func() (int, int) { return at.AggBelowBatch(lo, hi, thr, res, ok, cnt) })
		})
	}
	for _, frame := range []int{100, 10_000, n / 2} {
		b.Run(fmt.Sprintf("lanes/frame%d", frame), func(b *testing.B) {
			probe(b, frame, func() (leaves, diffs int) {
				for _, lane := range lanes {
					leaves, diffs = lane.AggBelowBatch(lo, hi, thr, sums, ok, cnt)
				}
				return leaves, diffs
			})
		})
	}
	for _, frame := range []int{60, 100} {
		b.Run(fmt.Sprintf("sum/frame%d", frame), func(b *testing.B) {
			probe(b, frame, func() (int, int) { return st.AggBelowBatch(lo, hi, thr, sums, ok, cnt) })
		})
	}
}
