package mst

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"holistic/internal/parallel"
)

// bruteCountBelow is the O(n) reference for a count query.
func bruteCountBelow(keys []int64, lo, hi int, threshold int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	cnt := 0
	for i := lo; i < hi; i++ {
		if keys[i] < threshold {
			cnt++
		}
	}
	return cnt
}

// bruteSelectKth is the O(n) reference for a one-range select query.
func bruteSelectKth(keys []int64, vLo, vHi int64, k int) (int, bool) {
	for i, v := range keys {
		if v >= vLo && v < vHi {
			if k == 0 {
				return i, true
			}
			k--
		}
	}
	return 0, false
}

// selectOne answers one select query through SelectKthRangesBatch: the
// base position of the k-th entry, in position order, whose value falls into
// one of ranges, and whether there is one.
func selectOne(tree *Tree, ranges [][2]int64, k int) (int, bool) {
	vlo, vhi := make([]int64, len(ranges)), make([]int64, len(ranges))
	for j, r := range ranges {
		vlo[j], vhi[j] = r[0], r[1]
	}
	out := []int32{0}
	tree.SelectKthRangesBatch([]int32{0, int32(len(ranges))}, vlo, vhi, []int32{int32(k)}, out)
	return int(out[0]), out[0] >= 0
}

func randKeys(rng *rand.Rand, n int, domain int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(domain)
	}
	return keys
}

func optVariants() []Options {
	return []Options{
		{},                           // defaults f=k=32
		{Fanout: 2, SampleEvery: 1},  // classic binary tree, dense pointers
		{Fanout: 2, SampleEvery: 7},  // odd sampling distance
		{Fanout: 4, SampleEvery: 16}, //
		{Fanout: 3, SampleEvery: 5},  // non-power-of-two fanout
		{Fanout: 32, SampleEvery: 32, Serial: true},
		{NoCascading: true}, // plain O((log n)^2) queries
		{Fanout: 64, SampleEvery: 4},
	}
}

func TestCountBelowAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 31, 32, 33, 100, 1000, 4097} {
		keys := randKeys(rng, n, int64(n)+1)
		for _, opt := range optVariants() {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatalf("Build(n=%d, %+v): %v", n, opt, err)
			}
			for trial := 0; trial < 50; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				th := rng.Int63n(int64(n) + 2)
				got := tree.CountBelow(lo, hi, th)
				want := bruteCountBelow(keys, lo, hi, th)
				if got != want {
					t.Fatalf("CountBelow(n=%d, opt=%+v, lo=%d, hi=%d, th=%d) = %d, want %d",
						n, opt, lo, hi, th, got, want)
				}
			}
		}
	}
}

func TestCountBelowExhaustiveSmall(t *testing.T) {
	// Every (lo, hi, threshold) triple on a fixed small input, all options.
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}
	n := len(keys)
	for _, opt := range optVariants() {
		tree, err := Build(keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				for th := int64(0); th <= 10; th++ {
					got := tree.CountBelow(lo, hi, th)
					want := bruteCountBelow(keys, lo, hi, th)
					if got != want {
						t.Fatalf("opt=%+v lo=%d hi=%d th=%d: got %d want %d", opt, lo, hi, th, got, want)
					}
				}
			}
		}
	}
}

func TestSelectKthAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 32, 33, 257, 1000} {
		keys := randKeys(rng, n, int64(n))
		for _, opt := range optVariants() {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 80; trial++ {
				vLo := rng.Int63n(int64(n) + 1)
				vHi := vLo + rng.Int63n(int64(n)+1-vLo)
				k := rng.Intn(n + 1)
				gotPos, gotOK := selectOne(tree, [][2]int64{{vLo, vHi}}, k)
				wantPos, wantOK := bruteSelectKth(keys, vLo, vHi, k)
				if gotOK != wantOK || (gotOK && gotPos != wantPos) {
					t.Fatalf("select(n=%d, opt=%+v, vLo=%d, vHi=%d, k=%d) = (%d,%v), want (%d,%v)",
						n, opt, vLo, vHi, k, gotPos, gotOK, wantPos, wantOK)
				}
			}
		}
	}
}

func TestSelectKthExhaustiveSmall(t *testing.T) {
	keys := []int64{5, 0, 2, 7, 2, 2, 9, 1, 4, 4, 6, 8, 0, 3}
	n := len(keys)
	for _, opt := range optVariants() {
		tree, err := Build(keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		for vLo := int64(0); vLo <= 10; vLo++ {
			for vHi := vLo; vHi <= 10; vHi++ {
				for k := 0; k <= n; k++ {
					gotPos, gotOK := selectOne(tree, [][2]int64{{vLo, vHi}}, k)
					wantPos, wantOK := bruteSelectKth(keys, vLo, vHi, k)
					if gotOK != wantOK || (gotOK && gotPos != wantPos) {
						t.Fatalf("opt=%+v vLo=%d vHi=%d k=%d: got (%d,%v) want (%d,%v)",
							opt, vLo, vHi, k, gotPos, gotOK, wantPos, wantOK)
					}
				}
			}
		}
	}
}

// bruteSelectRanges is the O(n) reference for a select query.
func bruteSelectRanges(keys []int64, ranges [][2]int64, k int) (int, bool) {
	for i, v := range keys {
		in := false
		for _, r := range ranges {
			if v >= r[0] && v < r[1] {
				in = true
				break
			}
		}
		if in {
			if k == 0 {
				return i, true
			}
			k--
		}
	}
	return 0, false
}

func TestSelectKthRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 5, 64, 500, 2000} {
		keys := randKeys(rng, n, int64(n))
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}} {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 100; trial++ {
				// Build up to 3 sorted disjoint value ranges.
				numR := 1 + rng.Intn(3)
				cuts := make([]int64, 0, 2*numR)
				for len(cuts) < 2*numR {
					cuts = append(cuts, rng.Int63n(int64(n)+1))
				}
				for i := 1; i < len(cuts); i++ {
					for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
						cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
					}
				}
				ranges := make([][2]int64, numR)
				for r := 0; r < numR; r++ {
					ranges[r] = [2]int64{cuts[2*r], cuts[2*r+1]}
				}
				k := rng.Intn(n + 1)
				gotPos, gotOK := selectOne(tree, ranges, k)
				wantPos, wantOK := bruteSelectRanges(keys, ranges, k)
				if gotOK != wantOK || (gotOK && gotPos != wantPos) {
					t.Fatalf("n=%d opt=%+v ranges=%v k=%d: got (%d,%v) want (%d,%v)",
						n, opt, ranges, k, gotPos, gotOK, wantPos, wantOK)
				}
			}
		}
	}
}

func TestSelectKthRangesEdge(t *testing.T) {
	tree, err := Build([]int64{5, 2, 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := selectOne(tree, nil, 0); ok {
		t.Fatal("no ranges must select nothing")
	}
	if _, ok := selectOne(tree, [][2]int64{{3, 3}, {9, 9}}, 0); ok {
		t.Fatal("empty ranges must select nothing")
	}
	if pos, ok := selectOne(tree, [][2]int64{{0, 3}, {6, 9}}, 1); !ok || pos != 2 {
		t.Fatalf("got (%d,%v), want (2,true)", pos, ok)
	}
}

// TestCountRange checks the value-range count LEAD/LAG's row number is made
// of: two count queries over one position range, one below each bound of a
// value range, differenced.
func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randKeys(rng, 500, 50)
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(501)
		hi := lo + rng.Intn(501-lo)
		vLo := rng.Int63n(51)
		vHi := vLo + rng.Int63n(51-vLo)
		want := 0
		for i := lo; i < hi && i < len(keys); i++ {
			if keys[i] >= vLo && keys[i] < vHi {
				want++
			}
		}
		if got := tree.CountBelow(lo, hi, vHi) - tree.CountBelow(lo, hi, vLo); got != want {
			t.Fatalf("count of [%d,%d) in [%d,%d) = %d, want %d", lo, hi, vLo, vHi, got, want)
		}
	}
}

// TestCountBelowProperty is a quick-check property: for random inputs and
// random queries, the MST count always equals the brute-force count.
func TestCountBelowProperty(t *testing.T) {
	prop := func(raw []uint16, loSeed, hiSeed, thSeed uint16) bool {
		n := len(raw)
		keys := make([]int64, n)
		for i, v := range raw {
			keys[i] = int64(v % 97)
		}
		tree, err := Build(keys, Options{Fanout: 4, SampleEvery: 3})
		if err != nil {
			return false
		}
		lo := 0
		hi := 0
		if n > 0 {
			lo = int(loSeed) % (n + 1)
			hi = lo + int(hiSeed)%(n+1-lo)
		}
		th := int64(thSeed % 100)
		return tree.CountBelow(lo, hi, th) == bruteCountBelow(keys, lo, hi, th)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneCountProperty checks the structural invariants of a count:
// monotone in the threshold and additive over position ranges.
func TestMonotoneCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := randKeys(rng, 777, 100)
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		lo := rng.Intn(778)
		hi := lo + rng.Intn(778-lo)
		mid := lo + rng.Intn(hi-lo+1)
		t1 := rng.Int63n(101)
		t2 := t1 + rng.Int63n(101-t1)
		c1 := tree.CountBelow(lo, hi, t1)
		c2 := tree.CountBelow(lo, hi, t2)
		if c1 > c2 {
			t.Fatalf("count not monotone in threshold: %d@%d > %d@%d", c1, t1, c2, t2)
		}
		if tree.CountBelow(lo, mid, t1)+tree.CountBelow(mid, hi, t1) != c1 {
			t.Fatalf("count not additive over [%d,%d)+[%d,%d)", lo, mid, mid, hi)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	// Fanouts outside [2, MaxFanout] get a typed error before anything is
	// sized from them: math.MaxInt32 children per sample row would ask the
	// OS for hundreds of GiB.
	keys := make([]int64, 1000)
	for _, f := range []int{1, -3, MaxFanout + 1, math.MaxInt32} {
		opt := Options{Fanout: f}
		var fe *FanoutError
		if _, err := Build(keys, opt); !errors.As(err, &fe) || fe.Fanout != f {
			t.Fatalf("Build with %+v: error %v, want a FanoutError for %d", opt, err, f)
		}
		if _, err := BuildAnnotated(keys, keys, func(a, b int64) int64 { return a + b }, opt); !errors.As(err, &fe) {
			t.Fatalf("BuildAnnotated with %+v: error %v, want a FanoutError", opt, err)
		}
	}
	if _, err := Build(keys, Options{Fanout: MaxFanout}); err != nil {
		t.Fatalf("fanout %d rejected: %v", MaxFanout, err)
	}
	if _, err := Build([]int64{1}, Options{SampleEvery: -1}); err == nil {
		t.Fatal("expected error for negative sample distance")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	empty, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.CountBelow(0, 0, 5); got != 0 {
		t.Fatalf("empty tree count = %d", got)
	}
	if _, ok := selectOne(empty, [][2]int64{{0, 10}}, 0); ok {
		t.Fatal("empty tree select returned ok")
	}
	single, err := Build([]int64{7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.CountBelow(0, 1, 8); got != 1 {
		t.Fatalf("single count below 8 = %d, want 1", got)
	}
	if got := single.CountBelow(0, 1, 7); got != 0 {
		t.Fatalf("single count below 7 = %d, want 0", got)
	}
	if pos, ok := selectOne(single, [][2]int64{{7, 8}}, 0); !ok || pos != 0 {
		t.Fatalf("single select = (%d,%v)", pos, ok)
	}
}

// Test32BitSelection pins the one payload width: the whole of
// [0, math.MaxInt32 − 1] builds and answers — a select range whose exclusive
// bound lies past the 32-bit domain takes the largest key — and the first key
// outside it, math.MaxInt32 included, is rejected with a PayloadRangeError
// naming its position in the input.
func Test32BitSelection(t *testing.T) {
	const top = math.MaxInt32 - 1
	edge, err := Build([]int64{1, top, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := edge.Stats().ElementBytes; got != 4 {
		t.Fatalf("element bytes = %d, want 4", got)
	}
	if got := edge.CountBelow(0, 3, top); got != 2 {
		t.Fatalf("count below MaxInt32-1 = %d, want 2", got)
	}
	if got := edge.CountBelow(0, 3, math.MaxInt32); got != 3 {
		t.Fatalf("count below MaxInt32 = %d, want 3", got)
	}
	for _, vHi := range []int64{math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64} {
		if pos, ok := selectOne(edge, [][2]int64{{top, vHi}}, 0); !ok || pos != 1 {
			t.Fatalf("select in [MaxInt32-1, %d) = (%d, %v), want (1, true)", vHi, pos, ok)
		}
		out := make([]int32, 1)
		edge.SelectKthRangesBatch([]int32{0, 1}, []int64{1}, []int64{vHi}, []int32{1}, out)
		if out[0] != 1 {
			t.Fatalf("batched select of the 2nd entry in [1, %d) = %d, want 1", vHi, out[0])
		}
	}
	for _, c := range []struct {
		name string
		keys []int64
		pos  int
	}{
		{"negative", []int64{3, -1, 1 << 40}, 1},
		{"MaxInt32", []int64{1, math.MaxInt32, 0}, 1},
		{"MaxInt32+1", []int64{1, 2, math.MaxInt32 + 1}, 2},
	} {
		_, err := Build(c.keys, Options{})
		var pe *PayloadRangeError
		if !errors.As(err, &pe) || pe.Pos != c.pos || pe.Value != c.keys[c.pos] {
			t.Fatalf("%s: error %v, want a PayloadRangeError for key %d at %d", c.name, err, c.keys[c.pos], c.pos)
		}
	}
}

func TestValue(t *testing.T) {
	keys := []int64{4, 8, 15, 16, 23, 42}
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range keys {
		if got := tree.Value(i); got != want {
			t.Fatalf("Value(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	n := 10_000
	rng := rand.New(rand.NewSource(5))
	keys := randKeys(rng, n, int64(n))
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	// ceil(log_32 10000) = 3 levels above the base copy? 32^3 = 32768 >= n,
	// 32^2 = 1024 < n, so levels = base + 3.
	if s.Levels != 4 {
		t.Fatalf("levels = %d, want 4", s.Levels)
	}
	if s.Elements != 4*n {
		t.Fatalf("elements = %d, want %d", s.Elements, 4*n)
	}
	if s.ElementBytes != 4 {
		t.Fatalf("element bytes = %d, want 4 (32-bit path)", s.ElementBytes)
	}
	if s.Pointers == 0 || s.Bytes == 0 {
		t.Fatalf("stats missing pointer accounting: %+v", s)
	}
	noCascade, err := Build(keys, Options{NoCascading: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := noCascade.Stats().Pointers; p != 0 {
		t.Fatalf("no-cascading tree reports %d pointers", p)
	}
}

func TestDuplicateHeavyInput(t *testing.T) {
	// The prevIdcs array of a distinct count over a mostly-unique column is
	// almost entirely zeros (§5.3) — exercise that shape explicitly.
	n := 5000
	keys := make([]int64, n)
	for i := 100; i < n; i += 500 {
		keys[i] = int64(i)
	}
	for _, opt := range []Options{{}, {NoCascading: true}, {Fanout: 2, SampleEvery: 1}} {
		tree, err := Build(keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 100; trial++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			th := rng.Int63n(int64(n))
			if got, want := tree.CountBelow(lo, hi, th), bruteCountBelow(keys, lo, hi, th); got != want {
				t.Fatalf("opt=%+v lo=%d hi=%d th=%d: got %d want %d", opt, lo, hi, th, got, want)
			}
		}
	}
}

// TestParallelBuildPaths forces a large worker pool so the within-run
// parallel multiway merge (splitter search, piece merging, piece-local
// sample recording) actually executes, then validates counts and the
// structural invariants.
func TestParallelBuildPaths(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{1 << 15, 1<<15 + 7777} {
		keys := randKeys(rng, n, 64) // few distinct values stress findSplit ties
		for _, opt := range []Options{{Fanout: 2, SampleEvery: 4}, {}} {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 200; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				th := rng.Int63n(66)
				if got, want := tree.CountBelow(lo, hi, th), bruteCountBelow(keys, lo, hi, th); got != want {
					t.Fatalf("n=%d opt=%+v [%d,%d) th=%d: got %d want %d", n, opt, lo, hi, th, got, want)
				}
			}
			checkInvariants(t, tree.tr)
		}
	}
}

// TestConcurrentProbes hammers one shared tree from many goroutines — the
// probe phase is embarrassingly parallel because the tree is read-only
// after construction (§4.1). Run with -race.
func TestConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 20_000
	keys := randKeys(rng, n, int64(n))
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := parallel.SetMaxWorkers(8)
	defer parallel.SetMaxWorkers(prev)
	errs := make([]error, 8)
	parallel.ForEach(8, func(g int) {
		r := rand.New(rand.NewSource(int64(g)))
		for trial := 0; trial < 2000; trial++ {
			lo := r.Intn(n + 1)
			hi := lo + r.Intn(n+1-lo)
			th := r.Int63n(int64(n) + 1)
			if got, want := tree.CountBelow(lo, hi, th), bruteCountBelow(keys, lo, hi, th); got != want {
				errs[g] = fmt.Errorf("goroutine %d: count[%d,%d)<%d = %d, want %d", g, lo, hi, th, got, want)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
