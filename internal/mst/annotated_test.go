package mst

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/parallel"
)

// prevIdcs computes the previous-occurrence index array of Algorithm 1 in
// the shifted representation of §5.1: 0 means "no previous occurrence",
// otherwise the value is previousIndex+1.
func prevIdcsRef(vals []int64) []int64 {
	last := make(map[int64]int)
	out := make([]int64, len(vals))
	for i, v := range vals {
		if p, ok := last[v]; ok {
			out[i] = int64(p) + 1
		}
		last[v] = i
	}
	return out
}

func bruteSumDistinct(vals []int64, lo, hi int) (float64, bool) {
	seen := make(map[int64]bool)
	sum := 0.0
	any := false
	for i := lo; i < hi && i < len(vals); i++ {
		if i < 0 || seen[vals[i]] {
			continue
		}
		seen[vals[i]] = true
		sum += float64(vals[i])
		any = true
	}
	return sum, any
}

func bruteMinDistinct(vals []int64, lo, hi int) (int64, bool) {
	var best int64
	any := false
	for i := lo; i < hi && i < len(vals); i++ {
		if !any || vals[i] < best {
			best = vals[i]
			any = true
		}
	}
	return best, any
}

func TestAnnotatedSumDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 17, 64, 500, 3000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n)/4 + 2) // plenty of duplicates
		}
		keys := prevIdcsRef(vals)
		aggVals := make([]float64, n)
		for i, v := range vals {
			aggVals[i] = float64(v)
		}
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}, {Serial: true}} {
			at, err := BuildAnnotated(keys, aggVals, func(a, b float64) float64 { return a + b }, opt)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 60; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				// SUM DISTINCT over frame [lo, hi): entries with prevIdx
				// (shifted) < lo+1 are first occurrences inside the frame.
				got, gotOK := at.AggBelow(lo, hi, int64(lo)+1)
				want, wantOK := bruteSumDistinct(vals, lo, hi)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("n=%d opt=%+v frame [%d,%d): got (%v,%v) want (%v,%v)",
						n, opt, lo, hi, got, gotOK, want, wantOK)
				}
				// The count must agree with a plain count query too.
				gotCnt := at.CountBelow(lo, hi, int64(lo)+1)
				wantCnt := bruteCountBelow(keys, lo, hi, int64(lo)+1)
				if gotCnt != wantCnt {
					t.Fatalf("n=%d frame [%d,%d): count %d want %d", n, lo, hi, gotCnt, wantCnt)
				}
			}
		}
	}
}

func TestAnnotatedMinDistinct(t *testing.T) {
	// MIN(DISTINCT x) == MIN(x); the annotated tree must still produce it
	// through prefix-min annotations.
	rng := rand.New(rand.NewSource(11))
	n := 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	keys := prevIdcsRef(vals)
	at, err := BuildAnnotated(keys, vals, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		got, gotOK := at.AggBelow(lo, hi, int64(lo)+1)
		want, wantOK := bruteMinDistinct(vals, lo, hi)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("frame [%d,%d): got (%v,%v) want (%v,%v)", lo, hi, got, gotOK, want, wantOK)
		}
	}
}

func TestAnnotatedValidation(t *testing.T) {
	if _, err := BuildAnnotated([]int64{0, 1}, []int64{1}, func(a, b int64) int64 { return a + b }, Options{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := BuildAnnotated([]int64{-1}, []int64{1}, func(a, b int64) int64 { return a + b }, Options{}); err == nil {
		t.Fatal("expected domain error for negative key")
	}
	if _, err := BuildAnnotated([]int64{5}, []int64{1}, func(a, b int64) int64 { return a + b }, Options{}); err == nil {
		t.Fatal("expected domain error for key > n")
	}
}

// TestAnnotatedRankOrderMatchesComposite pins the order an annotated tree is
// built in: every run of every level must list the base positions sorted by
// (key, position) — the order of the composite key·(n+1)+position, which at
// n = 50,000 no longer fits 32 bits — and AggBelow/AggBelowBatch must fold
// their run prefixes in exactly that order. The merge is neither associative
// nor commutative and the keys are duplicate-heavy, so a counting pass that
// ranks equal keys in any but position order fails both checks.
func TestAnnotatedRankOrderMatchesComposite(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(83))
	merge := func(a, b float64) float64 { return a*0.75 + b }
	for _, f := range []int{2, 7, 32} {
		for _, n := range []int{0, 1, 2, f, f*f - 1, f*f + 1, 50_000} {
			keys := make([]int64, n)
			values := make([]float64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n/8 + 2)) // heavy duplicates, all <= n
				values[i] = rng.NormFloat64()
			}
			at, err := BuildAnnotated(keys, values, merge, Options{Fanout: f})
			if err != nil {
				t.Fatal(err)
			}
			// order[l] is the expected position sequence of level l.
			posOf := make([]int32, n) // inverse of the base level's ranks
			for i, r := range at.t.levels[0] {
				posOf[r] = int32(i)
			}
			order := make([][]int32, len(at.t.levels))
			for l, elems := range at.t.levels {
				order[l] = make([]int32, n)
				rl := at.t.effLen[l]
				for start := 0; start < n; start += rl {
					run := order[l][start:min(start+rl, n)]
					for i := range run {
						run[i] = int32(start + i)
					}
					slices.SortFunc(run, func(a, b int32) int {
						return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
					})
				}
				for i, r := range elems {
					if posOf[r] != order[l][i] {
						t.Fatalf("f=%d n=%d level %d: slot %d holds position %d, (key, position) order puts %d there",
							f, n, l, i, posOf[r], order[l][i])
					}
				}
			}
			// The reference walks the same run decomposition top-down and
			// folds every covered run's qualifying entries in order[l].
			refAgg := func(lo, hi int, thr int64) (res float64, ok bool) {
				lo, hi = max(lo, 0), min(hi, n)
				var visit func(l, start int)
				visit = func(l, start int) {
					end := min(start+at.t.effLen[l], n)
					if hi <= start || end <= lo {
						return
					}
					if lo > start || hi < end {
						for cs := start; cs < end; cs += at.t.effLen[l-1] {
							visit(l-1, cs)
						}
						return
					}
					var part float64
					any := false
					for _, p := range order[l][start:end] {
						if keys[p] >= thr {
							break
						}
						if any {
							part = merge(part, values[p])
						} else {
							part, any = values[p], true
						}
					}
					switch {
					case !any:
					case ok:
						res = merge(res, part)
					default:
						res, ok = part, true
					}
				}
				if lo < hi {
					visit(len(order)-1, 0)
				}
				return res, ok
			}
			const m = 64
			lo, hi := make([]int32, m), make([]int32, m)
			thr := make([]int64, m)
			for q := range lo {
				lo[q] = int32(rng.Intn(n+3) - 1)
				hi[q] = lo[q] + int32(rng.Intn(n+2))
				thr[q] = int64(rng.Intn(n/8+4)) - 1
			}
			lo[0], hi[0], thr[0] = 0, int32(n), int64(n)+5 // full span, everything qualifies
			res, ok, cnt := make([]float64, m), make([]bool, m), make([]int32, m)
			at.AggBelowBatch(lo, hi, thr, res, ok, cnt)
			for q := range lo {
				want, wantOK := refAgg(int(lo[q]), int(hi[q]), thr[q])
				got, gotOK := at.AggBelow(int(lo[q]), int(hi[q]), thr[q])
				if gotOK != wantOK || ok[q] != wantOK ||
					(wantOK && (math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(res[q]) != math.Float64bits(want))) {
					t.Fatalf("f=%d n=%d [%d,%d)<%d: AggBelow (%v,%v), AggBelowBatch (%v,%v), reference fold (%v,%v)",
						f, n, lo[q], hi[q], thr[q], got, gotOK, res[q], ok[q], want, wantOK)
				}
			}
		}
	}
}
