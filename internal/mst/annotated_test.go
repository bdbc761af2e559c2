package mst

import (
	"cmp"
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

func bruteSumDistinct(vals []int64, lo, hi int) (int64, bool) {
	seen := make(map[int64]bool)
	sum := int64(0)
	any := false
	for i := lo; i < hi && i < len(vals); i++ {
		if i < 0 || seen[vals[i]] {
			continue
		}
		seen[vals[i]] = true
		sum += vals[i]
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

// aggRef is the reference for an annotated tree's queries, sharing none of
// its code: per level, every run's positions sorted by (key, position) — the
// order the tree is built in (annotated.go) — and a query folds, in every run
// its range covers, the prefix of entries whose key lies below the threshold,
// then merges those parts left to right. effLen is the tree's run length
// per level.
type aggRef[S any] struct {
	effLen []int
	keys   []int64
	values []S
	merge  func(S, S) S
	order  [][]int32
}

func newAggRef[S any](effLen []int, keys []int64, values []S, merge func(S, S) S) *aggRef[S] {
	n := len(keys)
	r := &aggRef[S]{effLen: effLen, keys: keys, values: values, merge: merge, order: make([][]int32, len(effLen))}
	for l, rl := range effLen {
		r.order[l] = make([]int32, n)
		for start := 0; start < n; start += rl {
			run := r.order[l][start:min(start+rl, n)]
			for i := range run {
				run[i] = int32(start + i)
			}
			slices.SortFunc(run, func(a, b int32) int {
				return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
			})
		}
	}
	return r
}

// query answers positions [lo, hi), clamped to the input, under key
// threshold thr: the fold, whether any entry qualifies, and how many do.
func (r *aggRef[S]) query(lo, hi int, thr int64) (res S, ok bool, cnt int) {
	n := len(r.keys)
	lo, hi = max(lo, 0), min(hi, n)
	var visit func(l, start int)
	visit = func(l, start int) {
		end := min(start+r.effLen[l], n)
		if hi <= start || end <= lo {
			return
		}
		if lo > start || hi < end {
			for cs := start; cs < end; cs += r.effLen[l-1] {
				visit(l-1, cs)
			}
			return
		}
		var part S
		any := false
		for _, p := range r.order[l][start:end] {
			if r.keys[p] >= thr {
				break
			}
			if any {
				part = r.merge(part, r.values[p])
			} else {
				part, any = r.values[p], true
			}
			cnt++
		}
		switch {
		case !any:
		case ok:
			res = r.merge(res, part)
		default:
			res, ok = part, true
		}
	}
	if lo < hi {
		visit(len(r.order)-1, 0)
	}
	return res, ok, cnt
}

// aggBatch answers queries through one AggBelowBatch call.
func aggBatch[S any](at *AnnotatedTree[S], lo, hi []int32, thr []int64) ([]S, []bool, []int32) {
	res, ok, cnt := make([]S, len(lo)), make([]bool, len(lo)), make([]int32, len(lo))
	at.AggBelowBatch(lo, hi, thr, res, ok, cnt)
	return res, ok, cnt
}

func TestAnnotatedSumDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 17, 64, 500, 3000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n)/4 + 2) // plenty of duplicates
		}
		keys := prevIdcsRef(vals)
		for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {Context: serialBuild}} {
			at, err := BuildSum(keys, [][]int64{vals}, opt, Full)
			if err != nil {
				t.Fatal(err)
			}
			// SUM DISTINCT over frame [lo, hi): entries with prevIdx
			// (shifted) < lo+1 are first occurrences inside the frame.
			const m = 60
			lo, hi, thr := make([]int32, m), make([]int32, m), make([]int64, m)
			for q := range lo {
				lo[q] = int32(rng.Intn(n + 1))
				hi[q] = lo[q] + int32(rng.Intn(n+1-int(lo[q])))
				thr[q] = int64(lo[q]) + 1
			}
			got, gotOK, gotCnt := aggBatch(at, lo, hi, thr)
			for q := range lo {
				want, wantOK := bruteSumDistinct(vals, int(lo[q]), int(hi[q]))
				if gotOK[q] != wantOK || (wantOK && got[q] != want) {
					t.Fatalf("n=%d opt=%+v frame [%d,%d): got (%v,%v) want (%v,%v)",
						n, opt, lo[q], hi[q], got[q], gotOK[q], want, wantOK)
				}
				// The count must agree with a plain count query too.
				if wantCnt := bruteCountBelow(keys, int(lo[q]), int(hi[q]), thr[q]); int(gotCnt[q]) != wantCnt {
					t.Fatalf("n=%d frame [%d,%d): count %d want %d", n, lo[q], hi[q], gotCnt[q], wantCnt)
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
	const m = 200
	lo, hi, thr := make([]int32, m), make([]int32, m), make([]int64, m)
	for q := range lo {
		lo[q] = int32(rng.Intn(n + 1))
		hi[q] = lo[q] + int32(rng.Intn(n+1-int(lo[q])))
		thr[q] = int64(lo[q]) + 1
	}
	got, gotOK, _ := aggBatch(at, lo, hi, thr)
	for q := range lo {
		want, wantOK := bruteMinDistinct(vals, int(lo[q]), int(hi[q]))
		if gotOK[q] != wantOK || (wantOK && got[q] != want) {
			t.Fatalf("frame [%d,%d): got (%v,%v) want (%v,%v)", lo[q], hi[q], got[q], gotOK[q], want, wantOK)
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
// n = 50,000 no longer fits 32 bits — and AggBelowBatch must take exactly
// the run prefixes the reference fold takes in that order (aggRef, over the
// witness sum). The keys are duplicate-heavy, so a counting pass that ranks
// equal keys in any but position order fails the first check.
func TestAnnotatedRankOrderMatchesComposite(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(83))
	for _, f := range []int{2, 7, 32} {
		for _, n := range []int{0, 1, 2, f, f*f - 1, f*f + 1, 50_000} {
			keys := make([]int64, n)
			values := make([]uint64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n/8 + 2)) // heavy duplicates, all <= n
				values[i] = witness(i)
			}
			at, err := BuildAnnotated(keys, values, mergeWitness, Options{Fanout: f})
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
			ref := newAggRef(at.t.effLen, keys, values, mergeWitness)
			const m = 64
			lo, hi := make([]int32, m), make([]int32, m)
			thr := make([]int64, m)
			for q := range lo {
				lo[q] = int32(rng.Intn(n+3) - 1)
				hi[q] = lo[q] + int32(rng.Intn(n+2))
				thr[q] = int64(rng.Intn(n/8+4)) - 1
			}
			lo[0], hi[0], thr[0] = 0, int32(n), int64(n)+5 // full span, everything qualifies
			res, ok, cnt := aggBatch(at, lo, hi, thr)
			for q := range lo {
				want, wantOK, wantCnt := ref.query(int(lo[q]), int(hi[q]), thr[q])
				if ok[q] != wantOK || int(cnt[q]) != wantCnt || (wantOK && res[q] != want) {
					t.Fatalf("f=%d n=%d [%d,%d)<%d: AggBelowBatch (%v,%v,%d), reference fold (%v,%v,%d)",
						f, n, lo[q], hi[q], thr[q], res[q], ok[q], cnt[q], want, wantOK, wantCnt)
				}
			}
		}
	}
}
