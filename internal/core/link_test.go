package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/arena"
	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/preprocess"
	"holistic/internal/sortutil"
	"holistic/internal/treecache"
)

// bruteLinkAt is the O(n) per position (O(n²) per input) occurrence-link
// oracle: the nearest positions before and after j whose values equal j's,
// in newLinks' representation.
func bruteLinkAt(n, j int, same func(a, b int) bool) (prev, next int64) {
	next = int64(n)
	for i := j - 1; i >= 0; i-- {
		if same(i, j) {
			prev = int64(i) + 1
			break
		}
	}
	for i := j + 1; i < n; i++ {
		if same(i, j) {
			next = int64(i)
			break
		}
	}
	return prev, next
}

// checkLinks compares prev/next over n positions with the brute-force oracle
// at every position j for which at(j) holds (every position for a nil at),
// and requires the links to be mutually consistent everywhere.
func checkLinks[K int32 | int64](t *testing.T, label string, prev, next []K, same func(a, b int) bool, at func(j int) bool) {
	t.Helper()
	n := len(prev)
	if len(next) != n {
		t.Fatalf("%s: %d prev links, %d next links", label, n, len(next))
	}
	for j := 0; j < n; j++ {
		if p := prev[j]; p > 0 && (next[p-1] != K(j) || !same(int(p-1), j)) {
			t.Fatalf("%s: prev[%d] = %d, but next[%d] = %d or the values differ", label, j, p, p-1, next[p-1])
		}
		if nx := next[j]; nx < K(n) && prev[nx] != K(j)+1 {
			t.Fatalf("%s: next[%d] = %d, but prev[%d] = %d", label, j, nx, nx, prev[nx])
		}
		if at != nil && !at(j) {
			continue
		}
		if wp, wn := bruteLinkAt(n, j, same); int64(prev[j]) != wp || int64(next[j]) != wn {
			t.Fatalf("%s: position %d linked (%d, %d), brute force (%d, %d)", label, j, prev[j], next[j], wp, wn)
		}
	}
}

// sortedLinks is the sort-based link DENSE_RANK ran before its direct one:
// positions radix-sorted by (word, position), then every run of equal words
// linked neighbour to neighbour.
func sortedLinks(t *testing.T, words []uint64) (prev, next []int64) {
	t.Helper()
	k := len(words)
	keys, sorted := slices.Clone(words), make([]int32, k)
	for j := range sorted {
		sorted[j] = int32(j)
	}
	if err := sortutil.SortPairs(context.Background(), keys, sorted); err != nil {
		t.Fatal(err)
	}
	prev, next = newLinks[int64](k)
	for i := 1; i < k; i++ {
		if keys[i] == keys[i-1] {
			prev[sorted[i]] = int64(sorted[i-1]) + 1
			next[sorted[i-1]] = int64(sorted[i])
		}
	}
	return prev, next
}

// TestHashLinkMatchesBruteForce checks the hashed link against the
// brute-force oracle on empty and one-row inputs, on hashes forced to
// collide (share values map to one hash, so slot hits must be settled by
// comparing values), on collision-free hashes with no
// comparison, and on more than 2^16 distinct values, which grows the table
// past its pooled size. DENSE_RANK's direct link must equal both the oracle
// and the sort-based link it replaced.
func TestHashLinkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []struct {
		name     string
		n, card  int
		share    int // values per hash; 0: the bijective mix64, no comparison
		sampleAt int // 0: check every position against brute force
	}{
		{"empty", 0, 1, 1, 0},
		{"one row", 1, 1, 1, 0},
		{"collide small", 97, 10, 4, 0},
		{"collide", 5_000, 300, 100, 0},
		{"bijective", 5_000, 300, 0, 0},
		{"grow collide", 150_000, 200_000, 2, 499},
		{"grow bijective", 150_000, 200_000, 0, 499},
	} {
		vals := make([]int64, c.n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(c.card))
		}
		hashes := make([]uint64, c.n)
		same := func(a, b int) bool { return vals[a] == vals[b] }
		linkSame := same
		for i, v := range vals {
			if c.share > 0 {
				hashes[i] = uint64(v) / uint64(c.share)
			} else {
				hashes[i] = mix64(uint64(v))
			}
		}
		if c.share == 0 {
			linkSame = nil
		}
		if c.sampleAt > 0 {
			distinct := map[int64]bool{}
			for _, v := range vals {
				distinct[v] = true
			}
			if len(distinct) <= 1<<16 {
				t.Fatalf("%s: %d distinct values do not grow the table", c.name, len(distinct))
			}
		}
		prev, next, _, err := linkHashes(hashes, linkSame, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var at func(j int) bool
		if c.sampleAt > 0 {
			at = func(j int) bool { return j%c.sampleAt == 0 }
		}
		checkLinks(t, c.name, prev, next, same, at)

		// The same values as DENSE_RANK keys.
		sorted := preprocess.SortIndicesByKey(vals)
		ranks, distinct := preprocess.DenseRanks(sorted, func(a, b int) bool { return vals[a] == vals[b] })
		rprev, rnext := linkRanks(ranks, distinct)
		words := make([]uint64, c.n)
		for j, r := range ranks {
			words[j] = uint64(r)
		}
		wantPrev, wantNext := sortedLinks(t, words)
		if !slices.Equal(rprev, wantPrev) || !slices.Equal(rnext, wantNext) {
			t.Fatalf("%s: DENSE_RANK's direct link differs from the sort-based link", c.name)
		}
		checkLinks(t, c.name+" ranks", rprev, rnext, same, at)
	}
}

// TestHashLinkCraftedKeys links 2^18 INT64 values chosen through unmix64 so
// that their hashes agree in the low 24 bits: an index taken from a hash's
// low bits would send every one of them to the same slot and probe
// quadratically. The seeded index must keep the probes linear.
func TestHashLinkCraftedKeys(t *testing.T) {
	const n, low = 1 << 18, 0x5a5a5a
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(unmix64(uint64(i)<<24 | low))
	}
	col := NewInt64Column("x", vals, nil)
	hashes := make([]uint64, n)
	for i := range hashes {
		if hashes[i] = col.hashAt(i); hashes[i]&(1<<24-1) != low {
			t.Fatalf("value %d hashes to %#x, want low bits %#x", vals[i], hashes[i], low)
		}
	}
	prev, next, probes, err := linkHashes(hashes, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bound := 4 * n; probes > bound {
		t.Fatalf("linking %d crafted keys inspected %d slots, want at most %d", n, probes, bound)
	}
	for j := range prev {
		if prev[j] != 0 || next[j] != n {
			t.Fatalf("position %d is linked, but every crafted value is distinct", j)
		}
	}
}

// FuzzHashLink decodes the input as little-endian 16-bit values and links
// their hashes reduced to 1–8 buckets, so unequal values collide constantly,
// against the brute-force oracle.
func FuzzHashLink(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 2, 0}, uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, buckets uint8) {
		vals := make([]uint16, len(data)/2)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint16(data[2*i:])
		}
		b := uint64(buckets%8) + 1
		hashes := make([]uint64, len(vals))
		for i, v := range vals {
			hashes[i] = mix64(uint64(v)) % b
		}
		same := func(a, b int) bool { return vals[a] == vals[b] }
		prev, next, _, err := linkHashes(hashes, same, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkLinks(t, fmt.Sprintf("%d values in %d buckets", len(vals), b), prev, next, same, nil)
	})
}

// TestCancelMidLink cancels a COUNT(DISTINCT) statement inside its link
// pass, once the hash table has grown past its pooled size, and requires the
// context's error, no cached structure, a link that stopped polling almost
// at once, no tree build, every span ended, and the table's pooled buffers
// back in their pools after this and every other cancelled run. The poll at
// which the link starts is found by bisection: the first cancellation point
// whose trace opens the "preprocess: prevIdcs" span.
func TestCancelMidLink(t *testing.T) {
	const n = 300_000
	rng := rand.New(rand.NewSource(17))
	ts, v := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i], v[i] = rng.Int63(), rng.Int63()
	}
	tab := MustNewTable(NewInt64Column("ts", ts, nil), NewInt64Column("v", v, nil))
	order := []SortKey{{Column: "ts"}}
	warm := &WindowSpec{OrderBy: order, Funcs: []FuncSpec{{Name: CountStar, Output: "c"}}}
	w := &WindowSpec{OrderBy: order, Funcs: []FuncSpec{{Name: CountDistinct, Arg: "v", Output: "cd"}}}
	// run evaluates w cancelled at the limit-th poll over a cache that
	// already holds the window's sort order, and reports how many entries
	// the cancelled statement added.
	run := func(limit int64) (ctx *cancelAfter, root *obs.Span, added int, err error) {
		cache := treecache.New(1 << 30)
		opt := Options{Cache: cache, CacheScope: "t@1", Context: parallel.ContextWithLimit(context.Background(), 1)}
		if _, err := Run(tab, warm, opt); err != nil {
			t.Fatal(err)
		}
		cached := cache.Stats().Entries
		ctx = &cancelAfter{Context: opt.Context, limit: limit}
		root = obs.NewSpan("query")
		opt.Context, opt.Trace = ctx, root
		_, err = Run(tab, w, opt)
		root.End()
		return ctx, root, cache.Stats().Entries - cached, err
	}
	opened := func(root *obs.Span, name string) bool {
		found := false
		root.Walk(func(sp *obs.Span, _ int) { found = found || sp.Name() == name })
		return found
	}
	before := arena.Snapshot()
	full, _, _, err := run(1 << 62)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(1), full.calls.Load() // the link's first poll is in (lo, hi]
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, root, _, _ := run(mid); opened(root, "preprocess: prevIdcs") {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Polls at positions 0, 2^16 and 2^17: by the third the table holds
	// more than 2^16 values and has grown out of the pool.
	ctx, root, added, err := run(hi + 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if !opened(root, "preprocess: prevIdcs") || opened(root, "build merge sort tree") {
		t.Fatalf("the cancellation did not land inside the link pass:\n%s", root.Render())
	}
	root.Walk(func(sp *obs.Span, depth int) {
		if !sp.Ended() {
			t.Errorf("span %q (depth %d) not ended after the cancelled Run", sp.Name(), depth)
		}
	})
	if added != 0 {
		t.Fatalf("%d structures cached by a statement cancelled mid-link, want none", added)
	}
	if calls := ctx.calls.Load(); calls > ctx.limit+4 {
		t.Fatalf("context polled %d times, %d of them after it was cancelled: the link ran on", calls, calls-ctx.limit)
	}
	for i, after := range arena.Snapshot() {
		if after.BytesInFlight != before[i].BytesInFlight {
			t.Errorf("pool %s: %d bytes in flight after the cancelled runs, %d before", after.Name, after.BytesInFlight, before[i].BytesInFlight)
		}
	}
}

// TestDistinctStringAgainstReference runs COUNT(DISTINCT) over a STRING
// argument with NULLs, and SUM/AVG(DISTINCT) over a nullable INT64 one —
// the two argument shapes whose link compares values on a hash match — with
// and without FILTER, under frames with EXCLUDE GROUP holes (the hole
// correction follows next), against the reference at the kernels' default
// cutoff and at 0.
func TestDistinctStringAgainstReference(t *testing.T) {
	tab, _, _, _ := leafCutoffTable(2, 300)
	rng := rand.New(rand.NewSource(5))
	strs, strNulls := make([]string, tab.Rows()), make([]bool, tab.Rows())
	for i := range strs {
		strs[i] = fmt.Sprintf("s%02d", rng.Intn(40))
		strNulls[i] = rng.Intn(9) == 0
	}
	tab = MustNewTable(append(tab.Columns(), NewStringColumn("s", strs, strNulls))...)
	var funcs []FuncSpec
	for _, filter := range []string{"", "flt"} {
		funcs = append(funcs,
			FuncSpec{Name: CountDistinct, Output: "cds" + filter, Arg: "s", Filter: filter},
			FuncSpec{Name: SumDistinct, Output: "sdv" + filter, Arg: "v", Filter: filter},
			FuncSpec{Name: AvgDistinct, Output: "adv" + filter, Arg: "v", Filter: filter})
	}
	bound := func(typ frame.BoundType, off int64) frame.Bound { return frame.Bound{Type: typ, Offset: off} }
	frames := []frame.Spec{
		{Mode: frame.Rows, Start: bound(frame.Preceding, 150), End: bound(frame.Following, 150), Exclude: frame.ExcludeGroup},
		{Mode: frame.Groups, Start: bound(frame.Preceding, 25), End: bound(frame.Following, 5), Exclude: frame.ExcludeGroup},
	}
	if testing.Short() {
		frames = frames[:1]
	}
	for fi, fs := range frames {
		w := leafCutoffWindow(fs, funcs)
		for _, cutoff := range []int{mst.LeafRows, 0} {
			prev := mst.SetLeafRows(cutoff)
			res, err := Run(tab, w, Options{TaskSize: 64})
			mst.SetLeafRows(prev)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.Funcs {
				f := &w.Funcs[i]
				compareToReference(t, tab, w, f, res.Column(f.Output), fmt.Sprintf("frame %d cutoff %d %s", fi, cutoff, f.Output))
			}
		}
	}
}

// BenchmarkHashLink times the link pass alone over mix64 hashes: 1M rows
// drawn Zipf-distributed from 50,000 values, 1M distinct rows (the table
// grows from 2^17 to 2^21 slots) and 2,000 partitions of 100 rows, each
// linked on its own. ns/row is per linked row.
func BenchmarkHashLink(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 1_000_000
	zipf := rand.NewZipf(rng, 1.1, 1, 50_000-1)
	zipfHashes, distinctHashes, small := make([]uint64, n), make([]uint64, n), make([]uint64, 2_000*100)
	for i := range zipfHashes {
		zipfHashes[i] = mix64(zipf.Uint64())
		distinctHashes[i] = mix64(uint64(i))
	}
	var parts [][]uint64
	for i := range small {
		small[i] = mix64(uint64(rng.Intn(50)))
		if i%100 == 99 {
			parts = append(parts, small[i-99:i+1])
		}
	}
	for _, arm := range []struct {
		name  string
		parts [][]uint64
	}{
		{"zipf50k", [][]uint64{zipfHashes}},
		{"distinct1m", [][]uint64{distinctHashes}},
		{"parts2000x100", parts},
	} {
		b.Run(arm.name, func(b *testing.B) {
			rows := 0
			for _, part := range arm.parts {
				rows += len(part)
			}
			for i := 0; i < b.N; i++ {
				for _, part := range arm.parts {
					if _, _, _, err := linkHashes(part, nil, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
