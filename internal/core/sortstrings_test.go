package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/arena"
	"holistic/internal/parallel"
)

// stringKeyShapes are the STRING key shapes of the rank pass's tests and
// benchmark: uniform 16-byte strings (the first word decides almost every
// pair), Zipf-skewed keys (long runs of equal strings, which tie on every
// word) and keys behind a shared 12-byte prefix (every string ties on its
// first word, so every run is re-sorted by the second).
var stringKeyShapes = []string{"uniform16", "zipf", "prefix12"}

// stringKeyTable builds n rows of a STRING column "s" in the given shape and
// an INT64 column "v" with many duplicates, for (s, v) keys.
func stringKeyTable(shape string, n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 50_000)
	strs, v := make([]string, n), make([]int64, n)
	for i := range strs {
		switch shape {
		case "uniform16":
			b := make([]byte, 16)
			rng.Read(b)
			strs[i] = string(b)
		case "zipf":
			strs[i] = fmt.Sprintf("zipf-key-%d", zipf.Uint64())
		case "prefix12":
			strs[i] = fmt.Sprintf("sharedprefix%d", rng.Intn(n))
		}
		v[i] = rng.Int63n(1000)
	}
	return MustNewTable(NewStringColumn("s", strs, nil), NewInt64Column("v", v, nil))
}

// TestSortStringKeysWorkerCaps sorts 2^17+ rows by (STRING, INT64) keys in
// every shape at worker caps 1, 2 and 4: above the cache size the rank
// pass's sorts split their buckets across the workers, and every cap must
// give the reference order.
func TestSortStringKeysWorkerCaps(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	n := 1<<17 + 13
	for si, shape := range stringKeyShapes {
		tab := stringKeyTable(shape, n, int64(si))
		for _, keys := range [][]SortKey{{{Column: "s"}, {Column: "v"}}, {{Column: "s", Desc: true}, {Column: "v"}}} {
			want := referenceOrder(tab, nil, keys)
			for _, workers := range []int{1, 2, 4} {
				opt := Options{Context: parallel.ContextWithLimit(context.Background(), workers)}
				got, err := windowSortIndices(tab, &WindowSpec{OrderBy: keys}, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s order by %+v at cap %d: the order differs from the reference", shape, keys, workers)
				}
			}
		}
	}
}

// TestCancelMidStringRanks ends the context of a STRING-key sort before it
// starts, at its third poll (inside the rank pass's first, parallel sort)
// and at its 500th (between the thousands of tied runs the shared-prefix
// shape re-sorts), at caps 1 and 4: the sort must return context.Canceled,
// stop polling almost at once and give back every pooled buffer.
func TestCancelMidStringRanks(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	tab := stringKeyTable("prefix12", 1<<17, 5)
	cols := appendOrderCols(nil, tab, []SortKey{{Column: "s"}})
	for _, workers := range []int{1, 4} {
		for _, limit := range []int64{1, 3, 500} {
			ctx := &cancelAfter{Context: context.Background(), limit: limit}
			before := arena.Snapshot()
			_, err := sortRows(tab.Rows(), nil, cols, Options{Context: parallel.ContextWithLimit(ctx, workers)})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cap %d, cancelled at poll %d: sortRows = %v, want context.Canceled", workers, limit, err)
			}
			if calls := ctx.calls.Load(); calls > limit+4 {
				t.Fatalf("cap %d: context polled %d times, %d of them after it was cancelled", workers, calls, calls-limit)
			}
			for i, after := range arena.Snapshot() {
				if after.BytesInFlight != before[i].BytesInFlight {
					t.Errorf("cap %d: pool %s: %d bytes in flight after the cancelled sort, %d before", workers, after.Name, after.BytesInFlight, before[i].BytesInFlight)
				}
			}
		}
	}
}

// BenchmarkSortStringKeys sorts 1M rows by (STRING, INT64) in each shape of
// stringKeyShapes through the window sort alone, on the workers -cpu
// allows. It calls only windowSortIndices, so the file also runs against
// an older checkout of the package for an A/B.
func BenchmarkSortStringKeys(b *testing.B) {
	const n = 1 << 20
	w := &WindowSpec{OrderBy: []SortKey{{Column: "s"}, {Column: "v"}}}
	for si, shape := range stringKeyShapes {
		tab := stringKeyTable(shape, n, int64(si))
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := windowSortIndices(tab, w, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
