package core

import (
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/preprocess"
	"holistic/internal/rangetree"
	"holistic/internal/treecache"
)

// The EvalMST benchmarks measure the steady-state per-row probe cost of the
// merge-sort-tree chunk collectors with every cached structure already built
// — the regime a warm server operates in. ns/op is per row.

// benchPartition assembles one partition plus frame computer exactly the way
// Run does, for a table with no PARTITION BY.
func benchPartition(b testing.TB, n int, f *FuncSpec) (*partition, *frame.Computer) {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	tab := randTable(rng, n)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 100},
			End:   frame.Bound{Type: frame.Following, Offset: 100},
		},
		FrameSet: true,
		Funcs:    []FuncSpec{*f},
	}
	if err := w.validate(tab); err != nil {
		b.Fatal(err)
	}
	sortIdx := preprocess.SortIndices(n, windowComparator(tab, w))
	parts := splitPartitions(tab, w, sortIdx)
	if len(parts) != 1 {
		b.Fatalf("expected 1 partition, got %d", len(parts))
	}
	p := parts[0]
	fc, err := p.frameComputer(p.w.effectiveFrame(&p.w.Funcs[0]))
	if err != nil {
		b.Fatal(err)
	}
	return p, fc
}

// benchChunks drives chunk over the n partition rows in 4096-row probe
// chunks, b.N rows in total, after one warm-up chunk has filled the kernel
// scratch pools.
func benchChunks(b *testing.B, n int, chunk func(lo, hi int)) {
	const chunkRows = 4096
	chunk(0, min(chunkRows, n))
	b.ReportAllocs()
	b.ResetTimer()
	row := 0
	for done := 0; done < b.N; {
		c := min(chunkRows, n-row, b.N-done)
		chunk(row, row+c)
		done += c
		row += c
		if row == n {
			row = 0
		}
	}
}

var benchSizes = []struct {
	name string
	n    int
}{{"20k", 20_000}, {"1M", 1_000_000}}

// BenchmarkEvalMSTCountBatch probes COUNT(DISTINCT) on a sliding ±100 ROWS
// frame: one whole-span count query per row through the batched kernel.
func BenchmarkEvalMSTCountBatch(b *testing.B) {
	for _, size := range benchSizes {
		f := &FuncSpec{Name: CountDistinct, Output: "x", Arg: "v"}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
		prev, next, err := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := mst.Build(prev, opt.Tree)
		if err != nil {
			b.Fatal(err)
		}
		out := newColumn(f.Output, Int64, size.n)
		b.Run(size.name, func(b *testing.B) {
			agg := &batchAgg{}
			benchChunks(b, size.n, func(lo, hi int) {
				distinctCountChunk(p, fl, fc, tree, prev, next, out, agg, lo, hi)
			})
		})
	}
}

// BenchmarkEvalMSTSelectBatch probes FIRST_VALUE against a pre-built
// permutation tree: one selection query per row.
func BenchmarkEvalMSTSelectBatch(b *testing.B) {
	const n = 20_000
	f := &FuncSpec{Name: FirstValue, Output: "x", Arg: "v", OrderBy: []SortKey{{Column: "v"}}}
	p, fc := benchPartition(b, n, f)
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], "")
	sortedAll, err := p.sortedByFuncOrder(&p.w.Funcs[0], opt)
	if err != nil {
		b.Fatal(err)
	}
	sortedKept := keptOrder(fl, sortedAll)
	perm := preprocess.Permutation(sortedKept)
	tree, err := mst.Build(perm, opt.Tree)
	if err != nil {
		b.Fatal(err)
	}
	valueCol := p.t.Column(f.Arg)
	out := newColumn(f.Output, valueCol.Kind(), n)
	agg := &batchAgg{}
	benchChunks(b, n, func(lo, hi int) {
		selectChunk(p, &p.w.Funcs[0], fl, fc, tree, valueCol, out, agg, lo, hi)
	})
}

// BenchmarkEvalMSTRunWarm measures a full Run with a warm structure cache —
// the per-request cost a caching server pays after the first query: output
// columns and per-partition bookkeeping, with all trees reused.
func BenchmarkEvalMSTRunWarm(b *testing.B) {
	const n = 20_000
	rng := rand.New(rand.NewSource(1234))
	tab := randTable(rng, n)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 100},
			End:   frame.Bound{Type: frame.Following, Offset: 100},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "c", Arg: "v"},
			{Name: FirstValue, Output: "f", Arg: "v", OrderBy: []SortKey{{Column: "v"}}},
		},
	}
	opt := Options{Cache: treecache.New(64 << 20), CacheScope: "bench@v1"}
	if _, err := Run(tab, w, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tab, w, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalMSTAggBatch probes SUM(DISTINCT) through the annotated tree's
// batched aggregate kernel.
func BenchmarkEvalMSTAggBatch(b *testing.B) {
	for _, size := range benchSizes {
		f := &FuncSpec{Name: SumDistinct, Output: "x", Arg: "v"}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
		prev, next, err := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
		if err != nil {
			b.Fatal(err)
		}
		sum := newSumLanes(p.t.Column(f.Arg), fl.k, fl.orig, false)
		tree, err := mst.BuildSum(prev, sum.lanes[0], opt.Tree, mst.Full)
		if err != nil {
			b.Fatal(err)
		}
		st := &cachedAgg{prev: prev, next: next, sum: sum, trees: []*mst.AnnotatedTree[int64]{tree}}
		out := newColumn(f.Output, Int64, size.n)
		b.Run(size.name, func(b *testing.B) {
			agg := &batchAgg{}
			benchChunks(b, size.n, func(lo, hi int) {
				distinctAggChunk(p, fl, fc, st, false, out, agg, lo, hi)
			})
		})
	}
}

// BenchmarkEvalMSTDenseRankBatch probes framed DENSE_RANK through the range
// tree's batched depth-synchronous decomposition.
func BenchmarkEvalMSTDenseRankBatch(b *testing.B) {
	for _, size := range benchSizes {
		f := &FuncSpec{Name: DenseRank, Output: "x", OrderBy: []SortKey{{Column: "v"}}}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], "")
		sortedAll, err := p.sortedByFuncOrder(&p.w.Funcs[0], opt)
		if err != nil {
			b.Fatal(err)
		}
		ranksAll, distinct := preprocess.DenseRanks(sortedAll, p.funcEqual(&p.w.Funcs[0]))
		ranksKept := make([]int64, fl.k)
		for j := range ranksKept {
			ranksKept[j] = ranksAll[fl.local(j)]
		}
		prevKept, nextKept := linkRanks(ranksKept, distinct)
		rt, err := rangetree.New(ranksKept, prevKept, opt.Tree)
		if err != nil {
			b.Fatal(err)
		}
		out := newColumn(f.Output, Int64, size.n)
		b.Run(size.name, func(b *testing.B) {
			agg := &batchAgg{}
			benchChunks(b, size.n, func(lo, hi int) {
				denseRankChunk(p, fl, fc, rt, ranksAll, ranksKept, prevKept, nextKept, out, agg, lo, hi)
			})
		})
	}
}

// BenchmarkEvalLeadLag measures LEAD(v, 1) through a warm-cache Run over one
// 200,000-row partition under a ±100 ROWS window ordered by d: with the
// function ordered by v, whose row-number prefixes jump from row to row, and
// by d itself, whose prefixes, frame bounds and value ranges slide. It goes
// through Run alone, so it measures any version of the operator unchanged.
// ns/op is one statement.
func BenchmarkEvalLeadLag(b *testing.B) {
	const n = 200_000
	tab := randTable(rand.New(rand.NewSource(1234)), n)
	for _, arm := range []struct {
		name string
		ord  []SortKey
	}{{"orderV", []SortKey{{Column: "v"}}}, {"orderD", []SortKey{{Column: "d"}}}} {
		w := &WindowSpec{
			OrderBy: []SortKey{{Column: "d"}},
			Frame: frame.Spec{
				Mode:  frame.Rows,
				Start: frame.Bound{Type: frame.Preceding, Offset: 100},
				End:   frame.Bound{Type: frame.Following, Offset: 100},
			},
			FrameSet: true,
			Funcs:    []FuncSpec{{Name: Lead, Output: "ld", Arg: "v", N: 1, OrderBy: arm.ord}},
		}
		opt := Options{Cache: treecache.New(256 << 20), CacheScope: "bench@v1"}
		if _, err := Run(tab, w, opt); err != nil {
			b.Fatal(err)
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tab, w, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloatSum measures SUM and SUM(DISTINCT) of a FLOAT64 column
// through a warm-cache Run over one 200,000-row partition: cents prices
// drawn from 20,000 values, under ROWS frames of 100 and 10,000 rows ordered
// by a random key. It goes through Run alone, so it measures any version of
// the operator unchanged. ns/row is one statement's time per row.
func BenchmarkFloatSum(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1234))
	ts, price := make([]int64, n), make([]float64, n)
	for i := range ts {
		ts[i], price[i] = rng.Int63(), float64(rng.Intn(20_000))/100
	}
	tab := MustNewTable(NewInt64Column("ts", ts, nil), NewFloat64Column("price", price, nil))
	for _, name := range []FuncName{Sum, SumDistinct} {
		for _, rows := range []int64{100, 10_000} {
			w := &WindowSpec{
				OrderBy: []SortKey{{Column: "ts"}},
				Frame: frame.Spec{Mode: frame.Rows,
					Start: frame.Bound{Type: frame.Preceding, Offset: rows - 1}, End: frame.Bound{Type: frame.CurrentRow}},
				FrameSet: true,
				Funcs:    []FuncSpec{{Name: name, Output: "s", Arg: "price"}},
			}
			opt := Options{Cache: treecache.New(256 << 20), CacheScope: "bench@v1"}
			if _, err := Run(tab, w, opt); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/frame%d", name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Run(tab, w, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
