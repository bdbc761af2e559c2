package mst

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestAggBatchDifferential pins the differential sum pass (agg_diff.go): a
// sum tree (BuildSum) in its full and leaf-only forms, over values within a
// thousand of ±2⁶³ so that every frame's sum wraps, answers sliding,
// jumping and mixed batches — growing, shrinking and EXCLUDE-style frames,
// thresholds drifting both ways, empty ranges, thresholds ≤ 0 and, on the
// full form, wide ranges between narrow ones — exactly like brute force,
// under both leaf seam settings. Both kernels must report exactly the
// queries the cost rule names (wantAggCounts) as answered from their
// predecessor: every query of a sliding batch but its first, at the
// production cutoff. An int64 MIN-merge tree answers the same batches with
// no query marked, and the sum tree charges its topPos.
func TestAggBatchDifferential(t *testing.T) {
	leafSeam(t, testAggBatchDifferential)
}

func testAggBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n = 2500
	distinct := make([]int64, 60)
	for i := range distinct {
		if i%2 == 0 {
			distinct[i] = math.MaxInt64 - rng.Int63n(1000)
		} else {
			distinct[i] = math.MinInt64 + rng.Int63n(1000)
		}
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = distinct[rng.Intn(len(distinct))]
	}
	keys := prevIdcsRef(vals)
	type batch struct {
		name   string
		lo, hi []int32
		thr    []int64
	}
	var batches []batch
	add := func(name string, lo, hi []int32, thr []int64) { batches = append(batches, batch{name, lo, hi, thr}) }
	add(slidingQueries(n, 60))
	add(jumpingQueries(rng, n, 3000))
	add(mixedQueries(rng, n, 6000, false))
	add(mixedQueries(rng, n, 6000, true))
	minMerge := func(a, b int64) int64 { return min(a, b) }
	for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {Fanout: 5, SampleEvery: 3}} {
		full, err := BuildAnnotated(keys, vals, addInt64, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []Form{Full, Leaves} {
			st, err := BuildSum(keys, [][]int64{vals}, opt, form)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := full.MemBytes(8) + 4*n
			if form == Leaves {
				wantBytes = 4*n + 4*(n+2) + 8*n + 4*n
			}
			if got := st.MemBytes(8); got != wantBytes {
				t.Errorf("opt=%+v %s sum tree: MemBytes %d, want %d (topPos charged)", opt, form, got, wantBytes)
			}
			for _, b := range batches {
				if form == Leaves && b.name == "mixed wide" {
					continue
				}
				leaves, diffs := checkIntSums(t, b.name, st, keys, [][]int64{vals}, b.lo, b.hi, b.thr, addInt64)
				wantL, wantD := wantAggCounts(form, true, keys, b.lo, b.hi, b.thr)
				if leaves != wantL || diffs != wantD {
					t.Errorf("opt=%+v %s form, %s batch: %d queries at the leaves and %d from their predecessor, the cost rule names %d and %d",
						opt, form, b.name, leaves, diffs, wantL, wantD)
				}
				if b.name == "sliding" && (form == Leaves || leafRows > 0) && diffs != len(b.lo)-1 {
					t.Errorf("opt=%+v %s form: %d of %d sliding queries answered from their predecessor, want all but the first",
						opt, form, diffs, len(b.lo))
				}
			}
		}
		mt, err := BuildAnnotated(keys, vals, minMerge, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, diffs := checkIntSums(t, "MIN "+b.name, mt, keys, [][]int64{vals}, b.lo, b.hi, b.thr, minMerge); diffs != 0 {
				t.Errorf("opt=%+v, %s batch: an int64 MIN tree answered %d queries from their predecessor, want none", opt, b.name, diffs)
			}
		}
	}
}

// checkIntSums runs one AggBelowBatch over an int64 tree of the given lanes
// whose merge is merge and checks every lane's answer against a brute-force
// fold of the lane's values whose key is below the threshold, in position
// order, or the zero state when none is. The result buffer starts with
// garbage in it, as a reused one would. It returns the kernel's leaf and
// differential counts.
func checkIntSums(t *testing.T, name string, at *AnnotatedTree[int64], keys []int64, lanes [][]int64, lo, hi []int32, thr []int64, merge func(a, b int64) int64) (leaves, diffs int) {
	t.Helper()
	m := len(lo)
	res, ok, cnt := make([]int64, len(lanes)*m), make([]bool, m), make([]int32, m)
	for i := range res {
		res[i] = -0x5eed_0000 - int64(i) // a reused buffer: no query may keep it
	}
	leaves, diffs = at.AggBelowBatch(lo, hi, thr, res, ok, cnt)
	for q := range lo {
		l, h := clampRange(int(lo[q]), int(hi[q]), len(keys))
		for lane, vals := range lanes {
			var want int64
			num := 0
			for j := l; j < h; j++ {
				if keys[j] < thr[q] {
					if num == 0 {
						want = vals[j]
					} else {
						want = merge(want, vals[j])
					}
					num++
				}
			}
			if got := res[lane*m+q]; ok[q] != (num > 0) || int(cnt[q]) != num || got != want {
				t.Fatalf("%s query %d lane %d [%d,%d)<%d: kernel (%d, %v, cnt %d), brute force %d of %d",
					name, q, lane, lo[q], hi[q], thr[q], got, ok[q], cnt[q], want, num)
			}
		}
	}
	return leaves, diffs
}

// wantAggCounts restates which queries an int64 tree of the given form
// answers without a descent and how: every valid query — a non-empty clamped
// range, a positive threshold — whose range the leaf rule takes (any on a
// leaf-only tree, at most leafRows rows on a full one). On a sum tree such a
// query is answered from the last one answered so before it when its range
// edges and threshold rank moved by fewer entries in all than its range
// spans; every other is folded at the leaves.
func wantAggCounts(form Form, sum bool, keys []int64, lo, hi []int32, thr []int64) (leaves, diffs int) {
	n := len(keys)
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	prev := false
	var pl, ph, pr int
	for q := range lo {
		l, h := clampRange(int(lo[q]), int(hi[q]), n)
		if l >= h || thr[q] <= 0 || (form != Leaves && h-l > leafRows) {
			continue
		}
		r := sort.Search(n, func(i int) bool { return sorted[i] >= thr[q] })
		if sum && prev && absInt(l-pl)+absInt(h-ph)+absInt(r-pr) < h-l {
			diffs++
		} else {
			leaves++
		}
		pl, ph, pr, prev = l, h, r, true
	}
	return leaves, diffs
}

// slidingQueries is a ROWS (w−1) PRECEDING frame over every one of n rows,
// clamped to the partition, with SUM(DISTINCT)'s threshold lo+1.
func slidingQueries(n, w int) (name string, lo, hi []int32, thr []int64) {
	for i := 0; i < n; i++ {
		l := max(0, i-w+1)
		lo, hi, thr = append(lo, int32(l)), append(hi, int32(i+1)), append(thr, int64(l)+1)
	}
	return "sliding", lo, hi, thr
}

// jumpingQueries is m narrow queries at random positions, widths and
// thresholds.
func jumpingQueries(rng *rand.Rand, n, m int) (name string, lo, hi []int32, thr []int64) {
	for range m {
		l := rng.Intn(n)
		lo, hi = append(lo, int32(l)), append(hi, int32(min(n, l+1+rng.Intn(LeafRows))))
		thr = append(thr, rng.Int63n(int64(n)+3)-1)
	}
	return "jumping", lo, hi, thr
}

// mixedQueries is about m queries in stretches of 10–50 of one shape, each
// continuing from where the last left the frame [a, b) and the threshold x;
// with wide set, some stretches are wider than LeafRows or interleave a wide
// query with a narrow one.
func mixedQueries(rng *rand.Rand, n, m int, wide bool) (name string, lo, hi []int32, thr []int64) {
	push := func(l, h int, x int64) {
		lo, hi, thr = append(lo, int32(l)), append(hi, int32(h)), append(thr, x)
	}
	a, b, x := 0, 40, int64(1)
	for len(lo) < m {
		if a < -3 || a > n-10 || b > n+3 || b <= a || b-a > LeafRows {
			a = rng.Intn(n - LeafRows)
			b = a + 1 + rng.Intn(LeafRows)
			x = int64(a) + 1
		}
		stretch := 10 + rng.Intn(41)
		switch rng.Intn(6) {
		case 0: // sliding, threshold lo+1
			for range stretch {
				a, b = a+1, b+1
				push(a, b, int64(a)+1)
			}
		case 1: // growing up to LeafRows rows, threshold drifting up
			for range stretch {
				if b-a < LeafRows-2 {
					a, b = a-rng.Intn(2), b+rng.Intn(2)
				}
				x += int64(rng.Intn(4))
				push(a, b, x)
			}
		case 2: // shrinking, threshold drifting down
			for range stretch {
				a, b, x = a+rng.Intn(2), b-rng.Intn(3), x-int64(rng.Intn(4))
				push(a, b, x)
			}
		case 3: // EXCLUDE CURRENT ROW: [a, c) and [c+1, b) around row c
			for range stretch {
				a, b = a+1, b+1
				c := (a + b) / 2
				push(a, c, int64(a)+1)
				push(c+1, b, int64(a)+1)
			}
		case 4: // empty ranges and thresholds ≤ 0 between sliding ones
			for s := range stretch {
				a, b = a+1, b+1
				push(a, b, int64(a)+1)
				if s%2 == 0 {
					push(b, a, x)
				} else {
					push(a, b, -int64(rng.Intn(2)))
				}
			}
		default: // wide frames, alone or between sliding narrow ones
			if !wide {
				continue
			}
			for s := range stretch {
				a, b = a+1, b+1
				w := LeafRows + 1 + rng.Intn(n/2)
				push(a, a+w, int64(a)+1)
				if s%2 == 0 {
					push(a, b, int64(a)+1)
				}
			}
		}
	}
	if wide {
		return "mixed wide", lo, hi, thr
	}
	return "mixed narrow", lo, hi, thr
}
