package mst

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestCountBatchDifferential pins the differential count pass
// (count_diff.go): batches that mix sliding, growing, shrinking and jumping
// frames, thresholds drifting both ways, EXCLUDE-style rows whose two ranges
// interleave around the current row, and the queries the kernel answers
// before ranking them — trivial, full-range, narrow, threshold ≤ 0 and past
// math.MaxInt32 — over previous-occurrence keys, duplicate-heavy keys and keys
// above n, on striped, deep and NoCascading trees, under both leaf
// seam settings. Every answer must equal brute force, and the kernel must report exactly the queries the cost rule names
// as answered from their predecessor: some on every tree with top-run
// positions at the production cutoff, none without positions or with the
// cutoff at 0.
func TestCountBatchDifferential(t *testing.T) {
	leafSeam(t, testCountBatchDifferential)
}

func testCountBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 2500
	inputs := []struct {
		name      string
		keys      []int64
		positions bool
	}{
		{"previous-occurrence", prevIdcsRef(randKeys(rng, n, 60)), true},
		{"duplicates", randKeys(rng, n, n/10), true},
		{"keys above n", randKeys(rng, n, 4*n), false},
	}
	lo, hi, thr := diffBatch(rng, n, 6000)
	out := make([]int32, len(lo))
	for _, in := range inputs {
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {Fanout: 5, SampleEvery: 3, NoCascading: true}} {
			tree, err := Build(in.keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			if (tree.tr.topPos != nil) != in.positions {
				t.Fatalf("%s opt=%+v: top-run positions present = %v, want %v", in.name, opt, tree.tr.topPos != nil, in.positions)
			}
			_, diffs := tree.CountBelowBatch(lo, hi, thr, out)
			for q := range out {
				if want := bruteCountBelow(in.keys, int(lo[q]), int(hi[q]), thr[q]); int(out[q]) != want {
					t.Fatalf("%s opt=%+v query %d [%d,%d)<%d: kernel %d, brute force %d",
						in.name, opt, q, lo[q], hi[q], thr[q], out[q], want)
				}
			}
			want := wantDiffs(tree, in.keys, lo, hi, thr)
			if diffs != want {
				t.Errorf("%s opt=%+v: %d queries answered from their predecessor, the cost rule names %d", in.name, opt, diffs, want)
			}
			if leafRows > 0 && in.positions && diffs == 0 {
				t.Errorf("%s opt=%+v: no query answered from its predecessor", in.name, opt)
			}
		}
	}
}

// wantDiffs restates the cost rule over a batch: on a tree with top-run
// positions, it counts the queries the kernel ranks — a non-empty
// clamped range wider than the cutoff, a threshold in (0, math.MaxInt32] —
// that are not full-range and whose range edges and top-run rank moved by
// fewer than leafRows entries in all since the ranked query before them.
func wantDiffs(tree *Tree, keys []int64, lo, hi []int32, thr []int64) int {
	if tree.tr.topPos == nil {
		return 0
	}
	n := len(keys)
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	want, ranked := 0, false
	var pl, ph, pr int
	for q := range lo {
		l, h := max(int(lo[q]), 0), min(int(hi[q]), n)
		if l >= h || h-l <= leafRows || thr[q] <= 0 || thr[q] > math.MaxInt32 {
			continue
		}
		r := sort.Search(n, func(i int) bool { return sorted[i] >= thr[q] })
		full := l == 0 && h == n
		if ranked && !full && absInt(l-pl)+absInt(h-ph)+absInt(r-pr) < leafRows {
			want++
		}
		pl, ph, pr, ranked = l, h, r, true
	}
	return want
}

// diffBatch is TestCountBatchDifferential's batch of about m queries over n
// rows: stretches of 10–50 queries of one shape at a time, each continuing
// from where the previous stretch left the frame [a, b) and the threshold x.
func diffBatch(rng *rand.Rand, n, m int) (lo, hi []int32, thr []int64) {
	push := func(l, h int, x int64) {
		lo, hi, thr = append(lo, int32(l)), append(hi, int32(h)), append(thr, x)
	}
	a, b, x := 0, n/3, int64(n/6)
	for len(lo) < m {
		if a < -3 || a > n-LeafRows-10 || b > n+3 || b-a <= LeafRows {
			a = rng.Intn(n / 2)
			b = a + LeafRows + 1 + rng.Intn(n/2)
		}
		stretch := 10 + rng.Intn(41)
		switch rng.Intn(7) {
		case 0: // sliding frame, COUNT(DISTINCT)'s threshold lo+1
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				push(a, b, int64(a)+1)
			}
		case 1: // growing at both ends, threshold drifting up
			for s := 0; s < stretch; s++ {
				a, b, x = a-rng.Intn(3), b+rng.Intn(3), x+int64(rng.Intn(4))
				push(a, b, x)
			}
		case 2: // shrinking at both ends, threshold drifting down
			for s := 0; s < stretch; s++ {
				a, b, x = a+rng.Intn(3), b-rng.Intn(3), x-int64(rng.Intn(4))
				push(a, b, x)
			}
		case 3: // jumping frames and thresholds
			for s := 0; s < stretch; s++ {
				a = rng.Intn(n - LeafRows - 1)
				b = a + LeafRows + 1 + rng.Intn(n-a)
				x = rng.Int63n(int64(n) + 2)
				push(a, b, x)
			}
		case 4: // EXCLUDE CURRENT ROW: [a, c) and [c+1, b) around row c
			for s := 0; s < stretch; s++ {
				a, b, x = a+1, b+1, x+int64(rng.Intn(3)-1)
				c := (a + b) / 2
				push(a, c, x)
				push(c+1, b, x)
			}
		case 5: // a sliding frame with its threshold fixed, then stepping back
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				push(a, b, x-int64(s%3))
			}
		default: // answered before ranking, between two ranked queries
			for s := 0; s < stretch; s++ {
				push(a, b, x)
				switch s % 5 {
				case 0: // trivial
					push(b, a, x)
				case 1: // full range, clamped
					push(-5, n+5, x)
				case 2: // the leaf rule's width
					push(a, a+1+rng.Intn(LeafRows), x)
				case 3: // threshold ≤ 0
					push(a, b, -int64(rng.Intn(2)))
				default: // threshold past the payload domain
					push(a, b, math.MaxInt32+1+rng.Int63n(5))
				}
			}
		}
	}
	return lo, hi, thr
}
