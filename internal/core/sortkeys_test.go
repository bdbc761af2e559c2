package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/arena"
	"holistic/internal/frame"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/preprocess"
	"holistic/internal/treecache"
)

// The values the sort-key differentials draw from: every boundary the
// normaliser folds (sign bias, -0.0, the NaN patterns, the infinities) and
// every boundary of a STRING key's 8-byte words: the empty string, one byte,
// exactly 8 bytes and 9 sharing them, a pair that differs only at byte 13
// (a shared 12-byte prefix), 16 and 17 bytes, "ab" against "ab\x00" (equal
// words, different strings) and bytes at or above 0x80.
var (
	sortTestInts   = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 42, -42, 1 << 40}
	sortTestFloats = []float64{math.NaN(), math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 1.5, -1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	sortTestStrings = []string{"", "a", "b", "ab", "ab\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi",
		"sharedprefixA-tail", "sharedprefixB-tail", "abcdefghijklmnop", "abcdefghijklmnopq", "\x80", "\xff\xfe", "a\x80", "zz"}
	sortTestColumns = []string{"i", "f", "b", "w", "seq", "s"}
)

// sortKeyTable builds one column per sortable shape: INT64, FLOAT64, BOOL and
// STRING with NULLs (code%8 == 7), a NULL-free INT64 column of wide values
// under an all-false mask, and the row number. code(row, col) picks the cell.
func sortKeyTable(n int, code func(row, col int) byte) *Table {
	ints, floats, bools, strs := make([]int64, n), make([]float64, n), make([]bool, n), make([]string, n)
	wide, seq := make([]int64, n), make([]int64, n)
	nulls := [4][]bool{make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)}
	for row := 0; row < n; row++ {
		for col := range nulls {
			nulls[col][row] = code(row, col)%8 == 7
		}
		ints[row] = sortTestInts[int(code(row, 0)/8)%len(sortTestInts)]
		floats[row] = sortTestFloats[int(code(row, 1)/8)%len(sortTestFloats)]
		bools[row] = code(row, 2)/8%2 == 1
		strs[row] = sortTestStrings[int(code(row, 3)/8)%len(sortTestStrings)]
		wide[row] = int64(mix64(uint64(code(row, 4))))
		seq[row] = int64(row)
	}
	return MustNewTable(
		NewInt64Column("i", ints, nulls[0]),
		NewFloat64Column("f", floats, nulls[1]),
		NewBoolColumn("b", bools, nulls[2]),
		NewStringColumn("s", strs, nulls[3]),
		NewInt64Column("w", wide, make([]bool, n)),
		NewInt64Column("seq", seq, nil),
	)
}

// referenceOrder is the oracle: the standard library's stable sort over
// Column.Compare, from ascending row order.
func referenceOrder(t *Table, partBy []string, keys []SortKey) []int32 {
	idx := make([]int32, t.Rows())
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		for _, name := range partBy {
			if c := t.Column(name).Compare(int(a), int(b), false, true); c != 0 {
				return c
			}
		}
		for _, k := range keys {
			if c := t.Column(k.Column).Compare(int(a), int(b), k.Desc, !k.NullsSmallest); c != 0 {
				return c
			}
		}
		return 0
	})
	return idx
}

// checkWindowSort requires the window sort to reproduce the oracle's order.
func checkWindowSort(t testing.TB, tab *Table, partBy []string, keys []SortKey) {
	t.Helper()
	got, err := windowSortIndices(tab, &WindowSpec{PartitionBy: partBy, OrderBy: keys}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceOrder(tab, partBy, keys); !slices.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("n=%d partition by %v order by %+v: position %d holds row %d, want row %d",
			tab.Rows(), partBy, keys, i, got[i], want[i])
	}
}

// checkFuncOrderSort requires every partition's function-order sort — whose
// tiebreak is the original row index, while the partition's local order is
// the window order — to equal sorting its positions by the ORDER BY keys,
// ties by original row index.
func checkFuncOrderSort(t testing.TB, tab *Table, w *WindowSpec, keys []SortKey) {
	t.Helper()
	sortIdx, err := windowSortIndices(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &FuncSpec{Name: Rank, OrderBy: keys}
	for pi, p := range splitPartitions(tab, w, sortIdx) {
		got, err := p.sortedByFuncOrder(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, p.len())
		for i := range want {
			want[i] = int32(i)
		}
		keyCmp := p.funcKeysComparator(f)
		slices.SortStableFunc(want, func(a, b int32) int {
			if c := keyCmp(int(a), int(b)); c != 0 {
				return c
			}
			return cmp.Compare(p.orig(int(a)), p.orig(int(b)))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("partition %d (%d rows) order by %+v: got %v, want %v", pi, p.len(), keys, got, want)
		}
	}
}

// allSortKeys lists every (column, direction, NULL placement) sort key.
func allSortKeys() []SortKey {
	var keys []SortKey
	for _, col := range sortTestColumns {
		for _, desc := range []bool{false, true} {
			for _, nullsSmallest := range []bool{false, true} {
				keys = append(keys, SortKey{Column: col, Desc: desc, NullsSmallest: nullsSmallest})
			}
		}
	}
	return keys
}

// TestSortKeysMatchComparator is the differential for the key normaliser and
// the radix sort under it: every kind × DESC × NullsSmallest, one to three
// key columns with and without PARTITION BY, on random, all-equal, sorted and
// reverse inputs, at sizes straddling the insertion cutoff (96) and the radix
// sort's cache split (1<<15), with 1<<14 ± 1 between them. The STRING cells
// cross every word boundary of the rank pass (sortTestStrings).
func TestSortKeysMatchComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	singles := allSortKeys()
	draw := func() SortKey { return singles[rng.Intn(len(singles))] }
	sizes := []int{0, 1, 2, 95, 96, 97, 1000, 1<<14 - 1, 1<<14 + 1, 1<<15 + 1}
	if testing.Short() { // the race run: one size above every cutoff is enough
		sizes = []int{0, 1, 2, 95, 96, 97, 1000, 1<<15 + 1}
	}
	for _, n := range sizes {
		codes := make([]byte, 5*n)
		rng.Read(codes)
		shapes := map[string]*Table{
			"random":   sortKeyTable(n, func(row, col int) byte { return codes[5*row+col] }),
			"allequal": sortKeyTable(n, func(row, col int) byte { return 9 }),
		}
		for shape, tab := range shapes {
			t.Run(fmt.Sprintf("%s/n%d", shape, n), func(t *testing.T) {
				// "seq" ascending is the already-sorted input, descending the
				// reversed one; both are among the singles.
				for _, k := range singles {
					checkWindowSort(t, tab, nil, []SortKey{k})
				}
				multi := 150
				if n > 1000 {
					multi = 12
				}
				if testing.Short() {
					multi /= 3
				}
				for c := 0; c < multi; c++ {
					keys := []SortKey{draw(), draw(), draw()}[:2+c%2]
					var partBy []string
					if c%3 == 0 {
						partBy = []string{sortTestColumns[rng.Intn(len(sortTestColumns))]}
					}
					checkWindowSort(t, tab, partBy, keys)
				}
			})
		}
		// Function-order sorts inside partitions whose local order (by "w")
		// is not row order: a few large partitions and many small ones.
		tab := shapes["random"]
		for c := 0; c < 4; c++ {
			checkFuncOrderSort(t, tab, &WindowSpec{PartitionBy: []string{"b"}, OrderBy: []SortKey{{Column: "w"}}}, []SortKey{draw()})
			checkFuncOrderSort(t, tab, &WindowSpec{PartitionBy: []string{"w"}, OrderBy: []SortKey{{Column: "f", Desc: true}}}, []SortKey{draw(), draw()})
		}
	}
}

// FuzzSortKeys drives the same differential from fuzzed cell codes and a
// fuzzed key list: spec selects the key count, each key's column, direction
// and NULL placement, and whether the first key is a PARTITION BY column.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{7, 15, 23, 31, 39, 0, 8, 16, 24, 32}, uint32(0))
	f.Add([]byte{0, 80, 160, 240, 7, 3, 9, 200, 100, 50, 25, 12, 6, 99, 1}, uint32(0x2b6d7))
	big := make([]byte, 5*40_000)
	rand.New(rand.NewSource(7)).Read(big)
	f.Add(big, uint32(0x1234567))
	f.Fuzz(func(t *testing.T, data []byte, spec uint32) {
		n := len(data) / 5
		tab := sortKeyTable(n, func(row, col int) byte { return data[5*row+col] })
		nkeys := 1 + int(spec%3)
		spec /= 3
		partition := spec%2 == 1
		spec /= 2
		var keys []SortKey
		for k := 0; k < nkeys; k++ {
			keys = append(keys, SortKey{
				Column:        sortTestColumns[int(spec%8)%len(sortTestColumns)],
				Desc:          spec>>3&1 == 1,
				NullsSmallest: spec>>4&1 == 1,
			})
			spec >>= 5
		}
		if partition {
			checkWindowSort(t, tab, []string{keys[0].Column}, keys[1:])
			checkFuncOrderSort(t, tab, &WindowSpec{PartitionBy: []string{keys[0].Column}, OrderBy: []SortKey{{Column: "w"}}}, keys[1:])
		} else {
			checkWindowSort(t, tab, nil, keys)
		}
	})
}

// unmix64 inverts mix64, which is a bijection: xor-shifts and odd
// multiplications each have an inverse.
func unmix64(x uint64) uint64 {
	inverse := func(m uint64) uint64 { // Newton's iteration mod 2^64
		inv := m
		for i := 0; i < 6; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	x ^= x>>31 ^ x>>62
	x *= inverse(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inverse(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}

// referenceLinks is the occurrence-link oracle: a comparator sort by value
// (ties by position), Algorithm 1 as preprocess.PrevIndices runs it, and the
// forward walk — the pair buildDistinctInputs used before the links came out
// of the hash sort's last pass.
func referenceLinks(fl *filtered, col *Column) (prev, next []int32) {
	sorted := preprocess.SortIndices(fl.k, func(a, b int) int { return col.Compare(fl.orig(a), fl.orig(b), false, true) })
	same := func(a, b int) bool { return col.equalAt(fl.orig(a), fl.orig(b)) }
	prev, next = make([]int32, fl.k), make([]int32, fl.k)
	for j, p := range preprocess.PrevIndices(sorted, same) {
		prev[j] = int32(p)
	}
	for j := range next {
		next[j] = int32(fl.k)
	}
	for i := 1; i < len(sorted); i++ {
		if same(int(sorted[i-1]), int(sorted[i])) {
			next[sorted[i-1]] = sorted[i]
		}
	}
	return prev, next
}

// distinctInputsPartition wraps tab as one partition in window order "ord".
func distinctInputsPartition(t *testing.T, tab *Table) *partition {
	t.Helper()
	w := &WindowSpec{OrderBy: []SortKey{{Column: "ord"}}}
	sortIdx, err := windowSortIndices(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return splitPartitions(tab, w, sortIdx)[0]
}

// TestDistinctInputsMatchReference: prev/next from the hash sort's last pass
// equal the oracle's for every argument kind, with NULL rows kept in or
// dropped from the domain and with a FILTER.
func TestDistinctInputsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 50, 97, 5000, 40_000} {
		tab := randTable(rng, n)
		ord, exact := make([]int64, n), make([]float64, n)
		for i := range ord {
			ord[i] = rng.Int63n(int64(n))
			exact[i] = sortTestFloats[rng.Intn(len(sortTestFloats))]
		}
		// "g" and "fz" hold no NULLs: their links come from the hashes alone.
		tab = MustNewTable(append(tab.Columns(), NewInt64Column("ord", ord, nil), NewFloat64Column("fz", exact, nil))...)
		p := distinctInputsPartition(t, tab)
		for _, arg := range []string{"v", "fv", "s", "flt", "g", "fz"} {
			for _, filter := range []string{"", "flt"} {
				for _, drop := range []string{"", arg} {
					f := &FuncSpec{Name: CountDistinct, Arg: arg, Filter: filter}
					fl := newFiltered(p, f, drop)
					prev, next, err := buildDistinctInputs(fl, f, Options{})
					if err != nil {
						t.Fatal(err)
					}
					wantPrev, wantNext := referenceLinks(fl, tab.Column(arg))
					if !slices.Equal(prev, wantPrev) || !slices.Equal(next, wantNext) {
						t.Fatalf("n=%d arg=%s filter=%q drop=%q: occurrence links differ from the reference", n, arg, filter, drop)
					}
				}
			}
		}
	}
}

// TestDistinctInputsHashCollision plants the one INT64 value whose hash is
// the NULL sentinel among NULL rows, so a single run of equal hashes holds two
// different values: the run must be split by value, never linking the value
// to a NULL.
func TestDistinctInputsHashCollision(t *testing.T) {
	nullHash := NewInt64Column("x", []int64{0}, []bool{true}).hashAt(0)
	evil := int64(unmix64(nullHash))
	if mix64(uint64(evil)) != nullHash {
		t.Fatalf("unmix64 does not invert mix64: mix64(%#x) = %#x, want %#x", evil, mix64(uint64(evil)), nullHash)
	}
	const n = 400
	rng := rand.New(rand.NewSource(3))
	vals, nulls, ord := make([]int64, n), make([]bool, n), make([]int64, n)
	for i := range vals {
		switch rng.Intn(3) {
		case 0:
			vals[i] = evil
		case 1:
			nulls[i] = true
		default:
			vals[i] = rng.Int63n(5)
		}
		ord[i] = int64(n - i)
	}
	tab := MustNewTable(NewInt64Column("x", vals, nulls), NewInt64Column("ord", ord, nil))
	col := tab.Column("x")
	p := distinctInputsPartition(t, tab)
	f := &FuncSpec{Name: CountDistinct, Arg: "x"}
	fl := newFiltered(p, f, "") // NULL rows stay in the domain
	prev, next, err := buildDistinctInputs(fl, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for j := range prev {
		if prev[j] > 0 {
			links++
			if col.IsNull(fl.orig(j)) != col.IsNull(fl.orig(int(prev[j]-1))) {
				t.Fatalf("position %d is linked to position %d across the NULL/value boundary", j, prev[j]-1)
			}
		}
	}
	if links == 0 {
		t.Fatal("no occurrence links at all; the collision run was not exercised")
	}
	wantPrev, wantNext := referenceLinks(fl, col)
	if !slices.Equal(prev, wantPrev) || !slices.Equal(next, wantNext) {
		t.Fatal("occurrence links differ from the reference on the collision run")
	}
}

// TestAllFalseNullMaskIsFree: a caller-supplied NULL mask without a set bit
// must cost what a nil mask costs. COUNT(x) asks every one of 20,000
// partitions whether x holds NULLs; when that answer was a scan of the whole
// mask, the statement went quadratic in the partition count (> 5× here).
func TestAllFalseNullMaskIsFree(t *testing.T) {
	const parts, per = 20_000, 10
	n := parts * per
	g, x := make([]int64, n), make([]int64, n)
	for i := range g {
		g[i], x[i] = int64(i/per), int64(i%7)
	}
	w := &WindowSpec{PartitionBy: []string{"g"}, Funcs: []FuncSpec{{Name: Count, Arg: "x", Output: "c"}}}
	run := func(mask []bool) (time.Duration, *Column) {
		tab := MustNewTable(NewInt64Column("g", g, nil), NewInt64Column("x", x, mask))
		best := time.Duration(math.MaxInt64)
		var out *Column
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res, err := Run(tab, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
			out = res.Table().Column("c")
		}
		return best, out
	}
	nilTime, want := run(nil)
	maskTime, got := run(make([]bool, n))
	requireIdentical(t, "count(x) under an all-false mask", got, want)
	if maskTime > 2*nilTime {
		t.Fatalf("all-false NULL mask: %v, nil mask: %v — more than 2× apart", maskTime, nilTime)
	}
}

// cancelAfter is a context that reports context.Canceled from its limit-th
// Err call on, which lands a cancellation at a chosen depth of an evaluation
// (the operator polls Err; it never waits on Done).
type cancelAfter struct {
	context.Context
	limit int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestCancelMidSort cancels inside the order sort of a large table — after
// Run's own entry check and the sort's first few buckets — and requires the
// context's error, no cached sort order, balanced scratch pools, a sort
// that stopped polling almost at once instead of finishing its passes, and
// every trace span ended on the error path.
func TestCancelMidSort(t *testing.T) {
	const n = 300_000
	rng := rand.New(rand.NewSource(11))
	ts, v := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i], v[i] = rng.Int63(), rng.Int63n(100)
	}
	tab := MustNewTable(NewInt64Column("ts", ts, nil), NewInt64Column("v", v, nil))
	w := &WindowSpec{OrderBy: []SortKey{{Column: "ts"}}, Funcs: []FuncSpec{{Name: CountDistinct, Arg: "v", Output: "cd"}}}
	cache := treecache.New(1 << 30)
	ctx := &cancelAfter{Context: context.Background(), limit: 20}
	before := arena.Snapshot()
	root := obs.NewSpan("query")
	_, err := Run(tab, w, Options{Context: ctx, Cache: cache, CacheScope: "t@1", Trace: root})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	root.End()
	spans := 0
	root.Walk(func(sp *obs.Span, depth int) {
		spans++
		if !sp.Ended() {
			t.Errorf("span %q (depth %d) not ended after the cancelled Run", sp.Name(), depth)
		}
	})
	if spans < 2 {
		t.Fatalf("the cancelled Run opened no span under the root")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("%d structures cached by a statement cancelled mid-sort, want none", st.Entries)
	}
	if calls := ctx.calls.Load(); calls > ctx.limit+4 {
		t.Fatalf("context polled %d times, %d of them after it was cancelled: the sort ran on", calls, calls-ctx.limit)
	}
	for i, after := range arena.Snapshot() {
		if after.BytesInFlight != before[i].BytesInFlight {
			t.Errorf("pool %s: %d bytes in flight after the cancelled run, %d before", after.Name, after.BytesInFlight, before[i].BytesInFlight)
		}
	}
}

// TestCancelMidSortString is TestCancelMidSort for a STRING ORDER BY, whose
// key word is the string's rank: cancelled at its third poll, after Run's
// entry check and inside the rank pass, the statement must return the
// context's error, cache no sort order and stop polling almost at once.
func TestCancelMidSortString(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(12))
	ts, v := make([]string, n), make([]int64, n)
	for i := range ts {
		ts[i], v[i] = fmt.Sprintf("k%012d", rng.Int63n(1e12)), rng.Int63n(100)
	}
	tab := MustNewTable(NewStringColumn("ts", ts, nil), NewInt64Column("v", v, nil))
	w := &WindowSpec{OrderBy: []SortKey{{Column: "ts"}}, FrameSet: true,
		Frame: frame.Spec{Mode: frame.Rows, Start: frame.Bound{Type: frame.Preceding, Offset: 10}, End: frame.Bound{Type: frame.CurrentRow}},
		Funcs: []FuncSpec{{Name: CountDistinct, Arg: "v", Output: "cd"}}}
	cache := treecache.New(1 << 30)
	ctx := &cancelAfter{Context: context.Background(), limit: 3}
	before := arena.Snapshot()
	root := obs.NewSpan("query")
	_, err := Run(tab, w, Options{Context: ctx, Cache: cache, CacheScope: "t@1", Trace: root})
	root.End()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	root.Walk(func(sp *obs.Span, depth int) {
		if !sp.Ended() {
			t.Errorf("span %q (depth %d) not ended after the cancelled Run", sp.Name(), depth)
		}
	})
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("%d structures cached by a statement cancelled mid-sort, want none", st.Entries)
	}
	if calls := ctx.calls.Load(); calls > ctx.limit+4 {
		t.Fatalf("context polled %d times, %d of them after it was cancelled: the sort ran on", calls, calls-ctx.limit)
	}
	for i, after := range arena.Snapshot() {
		if after.BytesInFlight != before[i].BytesInFlight {
			t.Errorf("pool %s: %d bytes in flight after the cancelled run, %d before", after.Name, after.BytesInFlight, before[i].BytesInFlight)
		}
	}
}

// BenchmarkSortByKeyWords sorts 200,000 rows by two INT64 columns through
// sortRows, one key word each: with -benchmem it shows what one multi-word
// sort allocates (the returned order and one set of scatter targets).
func BenchmarkSortByKeyWords(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(8))
	hi, lo := make([]int64, n), make([]int64, n)
	for i := range hi {
		hi[i], lo[i] = rng.Int63n(1000), rng.Int63()
	}
	tab := MustNewTable(NewInt64Column("hi", hi, nil), NewInt64Column("lo", lo, nil))
	cols := appendOrderCols(nil, tab, []SortKey{{Column: "hi"}, {Column: "lo"}})
	opt := Options{Context: parallel.ContextWithLimit(context.Background(), 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sortRows(n, nil, cols, opt); err != nil {
			b.Fatal(err)
		}
	}
}
