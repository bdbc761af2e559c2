// Benchmarks mirroring every table and figure of the paper's evaluation
// (§6). Each figure additionally has a full parameter sweep in
// cmd/paperbench; the benchmarks here pin one representative configuration
// per series so `go test -bench=.` regenerates the comparison shape:
//
//	Table 1  -> BenchmarkTable1_*   (complexity classes, serial)
//	Figure 9 -> BenchmarkFig9_*     (SQL-replacement strategies, 20k rows)
//	Figure 10-> BenchmarkFig10_*    (function x engine throughput)
//	Figure 11-> BenchmarkFig11_*    (frame size sensitivity)
//	Figure 12-> BenchmarkFig12_*    (non-monotonic frames)
//	Figure 13-> BenchmarkFig13_*    (fanout/sampling parameters)
//	Figure 14-> BenchmarkFig14_*    (distinct count end to end + phases)
//	§6.6     -> BenchmarkMemory_*   (tree construction footprint)
package holistic

import (
	"fmt"
	"testing"

	"holistic/internal/mst"
	"holistic/internal/parallel"
	"holistic/internal/tpch"
)

// benchTables caches generated inputs across benchmarks.
var benchTables = map[int]*Table{}

func benchLineitem(n int) *Table {
	if t, ok := benchTables[n]; ok {
		return t
	}
	t := tpch.GenerateLineitem(n, 42).Table()
	benchTables[n] = t
	return t
}

func runBench(b *testing.B, t *Table, w *Window, f *Func) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(t.Rows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(t, w, f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(t.Rows())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

func slidingWindow(size int) *Window {
	return Over().OrderBy(Asc("l_shipdate")).
		Frame(Rows(Preceding(int64(size-1)), CurrentRow()))
}

func benchMedian(e Engine) *Func { return MedianDisc(Asc("l_extendedprice")).WithEngine(e).As("o") }
func benchRank(e Engine) *Func   { return Rank(Asc("l_extendedprice")).WithEngine(e).As("o") }
func benchLead(e Engine) *Func {
	return Lead("l_extendedprice", 1, Asc("l_extendedprice")).WithEngine(e).As("o")
}
func benchDistinct(e Engine) *Func { return CountDistinct("l_partkey").WithEngine(e).As("o") }

// ---- Table 1: serial complexity classes --------------------------------

func table1Bench(b *testing.B, f *Func, n int) {
	prev := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prev)
	t := benchLineitem(n)
	w := slidingWindow(n / 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOptions(t, w, Options{TaskSize: n}, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_DistinctCount_Incremental(b *testing.B) {
	table1Bench(b, benchDistinct(EngineIncremental), 40_000)
}
func BenchmarkTable1_DistinctCount_MST(b *testing.B) {
	table1Bench(b, benchDistinct(EngineMergeSortTree), 40_000)
}
func BenchmarkTable1_Percentile_Incremental(b *testing.B) {
	table1Bench(b, benchMedian(EngineIncremental), 20_000)
}
func BenchmarkTable1_Percentile_SegmentTree(b *testing.B) {
	table1Bench(b, benchMedian(EngineSegmentTree), 40_000)
}
func BenchmarkTable1_Percentile_OSTree(b *testing.B) {
	table1Bench(b, benchMedian(EngineOSTree), 40_000)
}
func BenchmarkTable1_Percentile_MST(b *testing.B) {
	table1Bench(b, benchMedian(EngineMergeSortTree), 40_000)
}
func BenchmarkTable1_Rank_OSTree(b *testing.B) {
	table1Bench(b, benchRank(EngineOSTree), 40_000)
}
func BenchmarkTable1_Rank_MST(b *testing.B) {
	table1Bench(b, benchRank(EngineMergeSortTree), 40_000)
}

// ---- Figure 9: framed median on a tiny data set -------------------------

func fig9Bench(b *testing.B, e Engine) {
	t := benchLineitem(20_000)
	runBench(b, t, slidingWindow(1000), benchMedian(e))
}

func BenchmarkFig9_Median_Naive(b *testing.B)       { fig9Bench(b, EngineNaive) }
func BenchmarkFig9_Median_Incremental(b *testing.B) { fig9Bench(b, EngineIncremental) }
func BenchmarkFig9_Median_OSTree(b *testing.B)      { fig9Bench(b, EngineOSTree) }
func BenchmarkFig9_Median_MST(b *testing.B)         { fig9Bench(b, EngineMergeSortTree) }

// ---- Figure 10: throughput at a larger input size -----------------------

const fig10N = 200_000

func fig10Bench(b *testing.B, f *Func) {
	t := benchLineitem(fig10N)
	runBench(b, t, slidingWindow(fig10N/20), f)
}

func BenchmarkFig10_Median_MST(b *testing.B) { fig10Bench(b, benchMedian(EngineMergeSortTree)) }
func BenchmarkFig10_Median_OSTree(b *testing.B) {
	fig10Bench(b, benchMedian(EngineOSTree))
}
func BenchmarkFig10_Rank_MST(b *testing.B) { fig10Bench(b, benchRank(EngineMergeSortTree)) }
func BenchmarkFig10_Lead_MST(b *testing.B) { fig10Bench(b, benchLead(EngineMergeSortTree)) }
func BenchmarkFig10_DistinctCount_MST(b *testing.B) {
	fig10Bench(b, benchDistinct(EngineMergeSortTree))
}
func BenchmarkFig10_DistinctCount_Incremental(b *testing.B) {
	fig10Bench(b, benchDistinct(EngineIncremental))
}

// ---- Figure 11: frame size sensitivity ----------------------------------

func fig11Bench(b *testing.B, e Engine, frameSize int) {
	t := benchLineitem(100_000)
	runBench(b, t, slidingWindow(frameSize), benchMedian(e))
}

func BenchmarkFig11_Frame100_Naive(b *testing.B)        { fig11Bench(b, EngineNaive, 100) }
func BenchmarkFig11_Frame100_Incremental(b *testing.B)  { fig11Bench(b, EngineIncremental, 100) }
func BenchmarkFig11_Frame100_OSTree(b *testing.B)       { fig11Bench(b, EngineOSTree, 100) }
func BenchmarkFig11_Frame100_MST(b *testing.B)          { fig11Bench(b, EngineMergeSortTree, 100) }
func BenchmarkFig11_Frame3000_Incremental(b *testing.B) { fig11Bench(b, EngineIncremental, 3000) }
func BenchmarkFig11_Frame3000_OSTree(b *testing.B)      { fig11Bench(b, EngineOSTree, 3000) }
func BenchmarkFig11_Frame3000_MST(b *testing.B)         { fig11Bench(b, EngineMergeSortTree, 3000) }
func BenchmarkFig11_Frame30000_OSTree(b *testing.B)     { fig11Bench(b, EngineOSTree, 30_000) }
func BenchmarkFig11_Frame30000_MST(b *testing.B)        { fig11Bench(b, EngineMergeSortTree, 30_000) }

// ---- Figure 12: non-monotonic frames -------------------------------------

func fig12Bench(b *testing.B, e Engine, m float64) {
	n := 50_000
	l := tpch.GenerateLineitem(n, 42)
	t := l.Table()
	h := make([]int64, n)
	for i := 0; i < n; i++ {
		cents := int64(l.ExtendedPrice[i] * 100)
		h[i] = cents * 7703 % 499
		if h[i] < 0 {
			h[i] += 499
		}
	}
	fr := Rows(
		PrecedingBy(func(row int) int64 { return int64(m * float64(h[row])) }),
		FollowingBy(func(row int) int64 { return 500 - int64(m*float64(h[row])) }),
	)
	w := Over().OrderBy(Asc("l_shipdate")).Frame(fr)
	runBench(b, t, w, benchMedian(e))
}

func BenchmarkFig12_Monotonic_Incremental(b *testing.B)    { fig12Bench(b, EngineIncremental, 0) }
func BenchmarkFig12_Monotonic_MST(b *testing.B)            { fig12Bench(b, EngineMergeSortTree, 0) }
func BenchmarkFig12_NonMonotonic_Incremental(b *testing.B) { fig12Bench(b, EngineIncremental, 1) }
func BenchmarkFig12_NonMonotonic_Naive(b *testing.B)       { fig12Bench(b, EngineNaive, 1) }
func BenchmarkFig12_NonMonotonic_MST(b *testing.B)         { fig12Bench(b, EngineMergeSortTree, 1) }

// ---- Figure 13: fanout and pointer sampling ------------------------------

func fig13Bench(b *testing.B, fanout, sample int) {
	t := benchLineitem(100_000)
	opt := Options{Tree: TreeOptions{Fanout: fanout, SampleEvery: sample}}
	w := slidingWindow(5000)
	f := benchRank(EngineMergeSortTree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOptions(t, w, opt, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_F2_K1(b *testing.B)     { fig13Bench(b, 2, 1) }
func BenchmarkFig13_F16_K4(b *testing.B)    { fig13Bench(b, 16, 4) }
func BenchmarkFig13_F32_K32(b *testing.B)   { fig13Bench(b, 32, 32) }
func BenchmarkFig13_F256_K256(b *testing.B) { fig13Bench(b, 256, 256) }

// ---- Figure 14: framed distinct count end to end -------------------------

func BenchmarkFig14_RunningDistinctCount(b *testing.B) {
	t := benchLineitem(200_000)
	w := Over().OrderBy(Asc("l_shipdate")).
		Frame(Rows(UnboundedPreceding(), CurrentRow()))
	runBench(b, t, w, benchDistinct(EngineMergeSortTree))
}

// ---- §6.6: merge sort tree construction and memory -----------------------

func BenchmarkMemory_TreeBuild(b *testing.B) {
	for _, cfg := range []struct{ f, k int }{{16, 4}, {32, 32}} {
		b.Run(fmt.Sprintf("f%d_k%d", cfg.f, cfg.k), func(b *testing.B) {
			keys := make([]int64, 200_000)
			for i := range keys {
				keys[i] = int64(i*2654435761) % int64(len(keys))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int
			for i := 0; i < b.N; i++ {
				tree, err := mst.Build(keys, mst.Options{Fanout: cfg.f, SampleEvery: cfg.k})
				if err != nil {
					b.Fatal(err)
				}
				bytes = tree.Stats().Bytes
			}
			b.ReportMetric(float64(bytes), "tree-bytes")
		})
	}
}

// ---- Ablations (DESIGN.md) ------------------------------------------------

func ablationTreeBench(b *testing.B, opt TreeOptions) {
	t := benchLineitem(100_000)
	w := slidingWindow(5000)
	f := benchRank(EngineMergeSortTree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOptions(t, w, Options{Tree: opt}, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCascading_On(b *testing.B) { ablationTreeBench(b, TreeOptions{}) }
func BenchmarkAblationCascading_Off(b *testing.B) {
	ablationTreeBench(b, TreeOptions{NoCascading: true})
}

func BenchmarkAblationTaskRebuild_SingleTask(b *testing.B) {
	t := benchLineitem(100_000)
	w := slidingWindow(20_000)
	f := benchDistinct(EngineIncremental)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOptions(t, w, Options{TaskSize: t.Rows()}, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTaskRebuild_Tasks20k(b *testing.B) {
	t := benchLineitem(100_000)
	w := slidingWindow(20_000)
	f := benchDistinct(EngineIncremental)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOptions(t, w, Options{TaskSize: 20_000}, f); err != nil {
			b.Fatal(err)
		}
	}
}
