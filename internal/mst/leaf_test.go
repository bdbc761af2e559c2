package mst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// leafSettings are the two settings of the leaf seam (leaf.go) every kernel
// oracle runs under: the production cutoff, and off, which sends every query
// through the descent.
var leafSettings = []struct {
	name string
	rows int
}{{"leaves", LeafRows}, {"descent", 0}}

// leafSeam runs fn as one subtest per leaf seam setting, restoring the
// cutoff afterwards.
func leafSeam(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, s := range leafSettings {
		t.Run(s.name, func(t *testing.T) {
			defer func(saved int) { leafRows = saved }(leafRows)
			leafRows = s.rows
			fn(t)
		})
	}
}

// leafWidths are the range widths on both sides of the cutoff, plus one and a
// width no production cutoff reaches.
var leafWidths = []int{1, LeafRows - 1, LeafRows, LeafRows + 1, 250}

// TestLeafRule pins the leaf rule at its boundary: ranges of LeafRows−1,
// LeafRows and LeafRows+1 rows at every start position, through the scalar
// and batched count kernels of a monolithic tree and of a spilled forest
// (whose chunk boundaries narrow ranges straddle), and through the aggregate
// kernels of an int64 tree — whose sums wrap — and of a float64 tree, which
// never takes the leaf path. Every answer must match brute force, and the
// batched kernels must report exactly the queries of at most LeafRows rows as
// answered at the leaves, and none with the leaf path off.
func TestLeafRule(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n = 1000
	vals := make([]int64, n)
	wide := make([]int64, n)
	floats := make([]float64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(60))
		wide[i] = math.MaxInt64 - int64(rng.Intn(1000)) // any two of them wrap
		floats[i] = float64(vals[i]) / 3
	}
	keys := prevIdcsRef(vals)
	add := func(a, b int64) int64 { return a + b }
	var lo, hi []int32
	var thr []int64
	for _, w := range leafWidths {
		for a := 0; a+w <= n; a++ {
			lo, hi = append(lo, int32(a)), append(hi, int32(a+w))
			thr = append(thr, int64(a)+1)
		}
	}
	m := len(lo)
	leafSeam(t, func(t *testing.T) {
		wantLeaves := 0
		for q := range lo {
			if int(hi[q]-lo[q]) <= leafRows {
				wantLeaves++
			}
		}
		out := make([]int32, m)
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}, {SpillRows: 300}} {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := tree.CountBelowBatch(lo, hi, thr, out); got != wantLeaves {
				t.Errorf("opt=%+v: CountBelowBatch reports %d queries at the leaves, want %d", opt, got, wantLeaves)
			}
			for q := range out {
				want := bruteCountBelow(keys, int(lo[q]), int(hi[q]), thr[q])
				if scalar := tree.CountBelow(int(lo[q]), int(hi[q]), thr[q]); int(out[q]) != want || scalar != want {
					t.Fatalf("opt=%+v [%d,%d)<%d: kernel %d, scalar %d, brute force %d", opt, lo[q], hi[q], thr[q], out[q], scalar, want)
				}
			}
		}

		at, err := BuildAnnotated(keys, wide, add, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sums, okv, cnt := make([]int64, m), make([]bool, m), make([]int32, m)
		if got := at.AggBelowBatch(lo, hi, thr, sums, okv, cnt); got != wantLeaves {
			t.Errorf("int64 AggBelowBatch reports %d queries at the leaves, want %d", got, wantLeaves)
		}
		for q := range sums {
			var want int64
			num := 0
			for j := lo[q]; j < hi[q]; j++ {
				if keys[j] < thr[q] {
					want += wide[j]
					num++
				}
			}
			scalar, scalarOK := at.AggBelow(int(lo[q]), int(hi[q]), thr[q])
			if okv[q] != (num > 0) || scalarOK != (num > 0) || int(cnt[q]) != num || (num > 0 && (sums[q] != want || scalar != want)) {
				t.Fatalf("[%d,%d)<%d: kernel (%d, %v, cnt %d), scalar (%d, %v), brute force %d of %d",
					lo[q], hi[q], thr[q], sums[q], okv[q], cnt[q], scalar, scalarOK, want, num)
			}
		}

		fat, err := BuildAnnotated(keys, floats, func(a, b float64) float64 { return a + b }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fsums := make([]float64, m)
		if got := fat.AggBelowBatch(lo, hi, thr, fsums, okv, cnt); got != 0 {
			t.Errorf("float64 AggBelowBatch reports %d queries at the leaves, want 0: its fold order is part of the answer", got)
		}
	})
}

// BenchmarkLeafCrossover measures what the leaf rule trades: a batched query
// answered by a pass over level 0 ("scan") against the same query descending
// the tree ("descent"), across range widths on both sides of LeafRows and
// tree sizes from a small partition's to cold_1m's. Queries slide in probe
// order with random thresholds, 20,000 to a batch; ns/query is the cost of
// one. count is CountBelowBatch on previous-occurrence keys, agg is
// AggBelowBatch with an int64 sum. EXPERIMENTS.md "Narrow frames at the
// leaves" has the table LeafRows is chosen from.
func BenchmarkLeafCrossover(b *testing.B) {
	defer func(saved int) { leafRows = saved }(leafRows)
	const m = 20_000
	for _, n := range []int{2_000, 30_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n)/4 + 1)
		}
		keys := prevIdcsRef(vals)
		tree, err := Build(keys, Options{})
		if err != nil {
			b.Fatal(err)
		}
		at, err := BuildAnnotated(keys, vals, func(a, b int64) int64 { return a + b }, Options{})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := make([]int32, m), make([]int32, m)
		thr := make([]int64, m)
		out := make([]int32, m)
		sums, okv := make([]int64, m), make([]bool, m)
		for _, w := range []int{16, 32, 64, 128, 256, 512, 1024} {
			for q := range lo {
				a := q * (n - w) / m
				lo[q], hi[q], thr[q] = int32(a), int32(a+w), rng.Int63n(int64(n)+1)
			}
			for _, mode := range []struct {
				name string
				rows int
			}{{"scan", math.MaxInt}, {"descent", 0}} {
				leafRows = mode.rows
				name := fmt.Sprintf("n=%d/w=%d/%s", n, w, mode.name)
				b.Run("count/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tree.CountBelowBatch(lo, hi, thr, out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/query")
				})
				b.Run("agg/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						at.AggBelowBatch(lo, hi, thr, sums, okv, out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/query")
				})
			}
		}
	}
}
