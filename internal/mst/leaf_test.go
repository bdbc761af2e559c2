package mst

import (
	"errors"
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
// LeafRows and LeafRows+1 rows at every start position, through the batched
// count kernel of the default and a deep tree, and
// through the aggregate kernel of an int64 tree, whose sums wrap. Every
// answer must match
// brute force, and the batched kernels must report exactly the queries of at
// most LeafRows rows as answered at the leaves, and none with the leaf path
// off.
func TestLeafRule(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n = 1000
	vals := make([]int64, n)
	wide := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(60))
		wide[i] = math.MaxInt64 - int64(rng.Intn(1000)) // any two of them wrap
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
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}} {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := tree.CountBelowBatch(lo, hi, thr, out); got != wantLeaves {
				t.Errorf("opt=%+v: CountBelowBatch reports %d queries at the leaves, want %d", opt, got, wantLeaves)
			}
			for q := range out {
				if want := bruteCountBelow(keys, int(lo[q]), int(hi[q]), thr[q]); int(out[q]) != want {
					t.Fatalf("opt=%+v [%d,%d)<%d: kernel %d, brute force %d", opt, lo[q], hi[q], thr[q], out[q], want)
				}
			}
		}

		at, err := BuildAnnotated(keys, wide, add, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sums, okv, cnt := make([]int64, m), make([]bool, m), make([]int32, m)
		if got, _ := at.AggBelowBatch(lo, hi, thr, sums, okv, cnt); got != wantLeaves {
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
			if okv[q] != (num > 0) || int(cnt[q]) != num || (num > 0 && sums[q] != want) {
				t.Fatalf("[%d,%d)<%d: kernel (%d, %v, cnt %d), brute force %d of %d",
					lo[q], hi[q], thr[q], sums[q], okv[q], cnt[q], want, num)
			}
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

// narrowQueries are the leaf-only arms' batches: the fuzzer's range clamped
// and cut to at most LeafRows rows, its last row alone, the first LeafRows
// rows and the LeafRows rows from its start, with thresholds on both sides of
// the fuzzer's.
func narrowQueries(n, lo, hi int, threshold int64) (qLo, qHi []int32, thr []int64) {
	a, b := clampRange(lo, hi, n)
	b = min(b, a+LeafRows)
	qLo = []int32{int32(a), int32(max(b-1, a)), 0, int32(a)}
	qHi = []int32{int32(b), int32(b), int32(min(n, LeafRows)), int32(min(n, a+LeafRows))}
	return qLo, qHi, []int64{threshold, threshold - 1, threshold, threshold + 1}
}

// wantWidthError fails t unless err is the *WidthError of a rows-row range.
func wantWidthError(t *testing.T, err error, rows int) {
	t.Helper()
	var we *WidthError
	if !errors.As(err, &we) || we.Rows != rows || we.Max != LeafRows {
		t.Errorf("range of %d rows on a leaf-only structure: error %v, want a *WidthError", rows, err)
	}
}

// wantWidthPanic fails t unless probe panics with a *WidthError: the kernels'
// backstop when a caller skips CheckRows.
func wantWidthPanic(t *testing.T, probe func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if _, ok := recover().(*WidthError); !ok {
			t.Error("a range wider than LeafRows probed a leaf-only structure without a *WidthError panic")
		}
	}()
	probe()
}

// leafOnlyCounts is FuzzCountSelect's leaf-only arm: the Leaves form over the
// same keys answers ranges of at most LeafRows rows like brute force, through
// the batched kernel and CountBelow, its batch of one, whatever the leaf seam
// says; a wider
// range is refused by CheckRows with a *WidthError, and by the kernel's
// invariant when probed anyway.
func leafOnlyCounts(t *testing.T, keys []int64, opt Options, lo, hi int, threshold int64) {
	t.Helper()
	lt, err := BuildForm(keys, opt, Leaves)
	if err != nil {
		t.Fatalf("BuildForm(%d keys, %+v, Leaves): %v", len(keys), opt, err)
	}
	if s := lt.Stats(); s.Levels != 1 || s.Bytes != 4*len(keys) {
		t.Errorf("BuildForm(%d keys, Leaves): stats %+v; want one 4-byte level", len(keys), s)
	}
	qLo, qHi, thr := narrowQueries(len(keys), lo, hi, threshold)
	out := make([]int32, len(qLo))
	lt.CountBelowBatch(qLo, qHi, thr, out)
	for q := range out {
		want := bruteCountBelow(keys, int(qLo[q]), int(qHi[q]), thr[q])
		if scalar := lt.CountBelow(int(qLo[q]), int(qHi[q]), thr[q]); int(out[q]) != want || scalar != want {
			t.Errorf("leaf-only [%d,%d)<%d: kernel %d, scalar %d, brute force %d", qLo[q], qHi[q], thr[q], out[q], scalar, want)
		}
	}
	if err := lt.CheckRows(min(len(keys), LeafRows)); err != nil {
		t.Errorf("CheckRows(%d) on a leaf-only tree: %v", min(len(keys), LeafRows), err)
	}
	wantWidthError(t, lt.CheckRows(LeafRows+1), LeafRows+1)
	if n := len(keys); n > LeafRows {
		wantWidthPanic(t, func() { lt.CountBelow(0, n, 1) })
		wantWidthPanic(t, func() { lt.CountBelowBatch([]int32{0}, []int32{int32(n)}, []int64{1}, make([]int32, 1)) })
	}
}

// leafOnlyAggs is FuzzAggBatch's leaf-only arm: the leaf-only form of
// BuildAnnotated's tree over the same keys and int64 values answers narrow ranges like brute force, through
// AggBelowBatch, and refuses a wider one as leafOnlyCounts describes; so
// does BuildSum's leaf-only form, which also keeps topPos and answers a
// sliding run from each query's predecessor as the cost rule says.
func leafOnlyAggs(t *testing.T, keys, vals []int64, opt Options, lo, hi int, threshold int64) {
	t.Helper()
	lt, err := buildAnnotated(keys, vals, addInt64, opt, Leaves, false)
	if err != nil {
		t.Fatalf("buildAnnotated(%d keys, %+v, Leaves): %v", len(keys), opt, err)
	}
	if got, want := lt.MemBytes(8), int64(4*len(keys)+4*(len(keys)+2)+8*len(keys)); got != want {
		t.Errorf("buildAnnotated(%d keys, Leaves): MemBytes %d, want %d (ranks, threshold map, states)", len(keys), got, want)
	}
	qLo, qHi, thr := narrowQueries(len(keys), lo, hi, threshold)
	m := len(qLo)
	sums, ok, cnt := make([]int64, m), make([]bool, m), make([]int32, m)
	lt.AggBelowBatch(qLo, qHi, thr, sums, ok, cnt)
	for q := range sums {
		var want int64
		num := 0
		for j := qLo[q]; j < qHi[q]; j++ {
			if keys[j] < thr[q] {
				want += vals[j]
				num++
			}
		}
		if ok[q] != (num > 0) || int(cnt[q]) != num || (num > 0 && sums[q] != want) {
			t.Errorf("leaf-only [%d,%d)<%d: kernel (%d, %v, cnt %d), brute force %d of %d",
				qLo[q], qHi[q], thr[q], sums[q], ok[q], cnt[q], want, num)
		}
	}
	wantWidthError(t, lt.CheckRows(LeafRows+1), LeafRows+1)
	if n := len(keys); n > LeafRows {
		wantWidthPanic(t, func() { lt.AggBelowBatch([]int32{0}, []int32{int32(n)}, []int64{1}, sums[:1], ok[:1], cnt[:1]) })
	}

	st, err := BuildSum(keys, vals, opt, Leaves)
	if err != nil {
		t.Fatalf("BuildSum(%d keys, %+v, Leaves): %v", len(keys), opt, err)
	}
	if got, want := st.MemBytes(8), lt.MemBytes(8)+int64(4*len(keys)); got != want {
		t.Errorf("BuildSum(%d keys, Leaves): MemBytes %d, want %d (the unsummed tree's and topPos)", len(keys), got, want)
	}
	_, sLo, sHi, sThr := slidingQueries(len(keys), slidingWidth(lo, hi))
	qLo, qHi, thr = append(qLo, sLo...), append(qHi, sHi...), append(thr, sThr...)
	wantL, wantD := wantAggCounts(Leaves, true, keys, qLo, qHi, thr)
	if leaves, diffs := checkIntSums(t, "leaf-only sum", st, keys, vals, qLo, qHi, thr, addInt64); leaves != wantL || diffs != wantD {
		t.Errorf("leaf-only sum tree reports %d queries at the leaves and %d from their predecessor, the cost rule names %d and %d", leaves, diffs, wantL, wantD)
	}
	wantWidthError(t, st.CheckRows(LeafRows+1), LeafRows+1)
}

// slidingWidth is the width of the sliding run FuzzAggBatch and leafOnlyAggs
// append, from the fuzzed range: 1 to LeafRows rows.
func slidingWidth(lo, hi int) int { return 1 + absInt(hi-lo)%LeafRows }

// TestLeafOnlyStructures pins the leaf-only forms on one input past the
// cutoff: every range of at most LeafRows rows answers like the full tree's,
// what they own is level 0 (and, annotated, the threshold map and the
// states), and what they cannot do they refuse — a wider range, selection,
// a lane of a tree BuildSum did not build.
func TestLeafOnlyStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 600
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(40))
	}
	keys := prevIdcsRef(vals)
	for _, lo := range []int{0, 1, 200, n - LeafRows, n - 3} {
		for _, w := range []int{1, LeafRows - 1, LeafRows} {
			leafOnlyCounts(t, keys, Options{}, lo, lo+w, int64(lo)+1)
			leafOnlyAggs(t, keys, vals, Options{}, lo, lo+w, int64(lo)+1)
		}
	}
	lt, err := BuildForm(keys, Options{}, Leaves)
	if err != nil {
		t.Fatal(err)
	}
	for name, probe := range map[string]func(){
		"SelectKthRangesBatch": func() { lt.SelectKthRangesBatch([]int32{0, 1}, []int64{0}, []int64{10}, []int32{0}, make([]int32, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a leaf-only tree did not panic", name)
				}
			}()
			probe()
		}()
	}
	at, err := buildAnnotated(keys, vals, addInt64, Options{}, Leaves, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := at.Lane(vals, Options{}); err == nil {
		t.Error("Lane accepted a tree BuildSum did not build, which keeps no topPos")
	}
	if _, err := BuildForm([]int64{-1}, Options{}, Leaves); err == nil {
		t.Error("BuildForm(Leaves) accepted a negative key")
	}
}
