package mst

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/parallel"
)

// checkInvariants validates the structural invariants of a built tree:
// every level is a permutation of the base multiset, runs are sorted, the
// top level is one fully sorted run, every cascading sample really is the
// merge's consumed-count snapshot, every origin entry is the child the
// stable reference merge takes, the step gives every child's exact rank
// (checkRankIdentity) — with and without stripes — and the top-run positions
// are the stable argsort of level 0 (checkTopPositions).
func checkInvariants(t *testing.T, tr *tree) {
	t.Helper()
	n := tr.n
	base := map[int32]int{}
	for _, v := range tr.levels[0] {
		base[v]++
	}
	for l := 1; l < len(tr.levels); l++ {
		// Same multiset.
		seen := map[int32]int{}
		for _, v := range tr.levels[l] {
			seen[v]++
		}
		if len(seen) != len(base) {
			t.Fatalf("level %d: element multiset changed", l)
		}
		for v, c := range base {
			if seen[v] != c {
				t.Fatalf("level %d: count of %v is %d, want %d", l, v, seen[v], c)
			}
		}
		// Runs sorted.
		rl := tr.effLen[l]
		for start := 0; start < n; start += rl {
			end := start + rl
			if end > n {
				end = n
			}
			run := tr.levels[l][start:end]
			for i := 1; i < len(run); i++ {
				if run[i-1] > run[i] {
					t.Fatalf("level %d run at %d not sorted", l, start)
				}
			}
		}
		// Samples: for run r, sample s covers the prefix of length s·k; the
		// recorded consumed counts must equal, per child, the number of its
		// elements among the lexicographically smallest s·k elements of the
		// merge — verified by re-merging.
		if (tr.samples[l] != nil) != (tr.origin[l] != nil) {
			t.Fatalf("level %d: samples present = %v but origin stripe present = %v; a tree is striped or NoCascading",
				l, tr.samples[l] != nil, tr.origin[l] != nil)
		}
		numRuns := (n + rl - 1) / rl
		for r := 0; r < numRuns; r++ {
			kids := tr.children(l, r)
			checkRankIdentity(t, tr, l, r, kids)
			if tr.samples[l] == nil {
				continue
			}
			runStart := r * rl
			runEnd := runStart + rl
			if runEnd > n {
				runEnd = n
			}
			length := runEnd - runStart
			// Reference merge with consumed tracking.
			pos := make([]int, len(kids))
			for p := 0; p <= length; p++ {
				if p%tr.k == 0 {
					sample := tr.samples[l][r*tr.stride[l]+(p/tr.k)*tr.f:]
					for c := range kids {
						if int(sample[c]) != pos[c] {
							t.Fatalf("level %d run %d sample at prefix %d child %d: %d, want %d",
								l, r, p, c, sample[c], pos[c])
						}
					}
				}
				if p == length {
					break
				}
				// Take the stable minimum head.
				best := -1
				for c, kid := range kids {
					if pos[c] >= len(kid) {
						continue
					}
					if best == -1 || kid[pos[c]] < kids[best][pos[best]] {
						best = c
					}
				}
				if tr.origin[l] != nil && int(tr.origin[l][runStart+p]) != best {
					t.Fatalf("level %d run %d output %d: origin %d, stable merge takes child %d",
						l, r, p, tr.origin[l][runStart+p], best)
				}
				pos[best]++
			}
		}
	}
	if len(tr.levels) > 1 {
		top := tr.levels[tr.top()]
		for i := 1; i < len(top); i++ {
			if top[i-1] > top[i] {
				t.Fatal("top level not fully sorted")
			}
		}
	}
	checkTopPositions(t, tr)
}

// checkTopPositions verifies a tree's top-run positions: absent exactly when
// a key exceeds n, and otherwise the stable argsort of level 0 — every base
// position once, naming the top run's element at each position, positions
// ascending among equal elements.
func checkTopPositions(t *testing.T, tr *tree) {
	t.Helper()
	lv0 := tr.levels[0]
	if wantNil := slices.ContainsFunc(lv0, func(v int32) bool { return int(v) > tr.n }); (tr.topPos == nil) != wantNil {
		t.Fatalf("topPos present = %v over keys with max above n = %v", tr.topPos != nil, wantNil)
	}
	if tr.topPos == nil {
		return
	}
	top := tr.levels[tr.top()]
	seen := make([]bool, tr.n)
	for p, pos := range tr.topPos {
		if seen[pos] || lv0[pos] != top[p] || (p > 0 && top[p-1] == top[p] && tr.topPos[p-1] >= pos) {
			t.Fatalf("topPos[%d] = %d: not the stable argsort of level 0", p, pos)
		}
		seen[pos] = true
	}
}

// checkRankIdentity verifies both forms of the step on one run: for every
// threshold x just below, at and just above every value of the run,
// ranksStep must give every child's exact rank of x (on a striped tree: the
// sample entry at the last sample point at or before the run's own rank plus
// the origin entries naming the child between that sample point and the
// rank), and countStep's three quantities must agree with those ranks for
// every range of children [cFirst, cLast].
func checkRankIdentity(t *testing.T, tr *tree, l, r int, kids [][]int32) {
	t.Helper()
	lv := tr.view(l)
	run := tr.run(l, r)
	runStart, _ := lv.span(r)
	got := make([]int32, tr.f)
	for i, v := range run {
		if i > 0 && v == run[i-1] {
			continue
		}
		for _, x := range []int32{v - 1, v, v + 1} {
			rank := lowerBoundP(run, x)
			lv.ranksStep(r, rank, x, 0, len(kids)-1, got)
			for c, kid := range kids {
				if want := lowerBoundP(kid, x); int(got[c]) != want {
					t.Fatalf("level %d run %d child %d threshold %v: step gives rank %d, want %d",
						l, r, c, x, got[c], want)
				}
			}
			if lv.childLen == 1 || i%7 != 0 {
				continue // countStep counts level 1 in place; sample the rest
			}
			// A frame from inside child cFirst to inside child cLast leaves
			// both partial and covers exactly the children between them.
			for cFirst := 0; cFirst < len(kids); cFirst++ {
				for cLast := cFirst; cLast < len(kids); cLast++ {
					lo := runStart + cFirst*lv.childLen + 1
					hi := runStart + cLast*lv.childLen + 1
					if cFirst == cLast {
						hi++
					}
					if len(kids[cLast]) < 3 {
						continue // a ragged last child too short to be partial
					}
					covered, partial := lv.countStep(r, rank, lo, hi, x)
					mid := 0
					for _, s := range got[cFirst+1 : max(cLast, cFirst+1)] {
						mid += int(s)
					}
					ok := covered == mid && partial[0] == (partialChild{cFirst, int(got[cFirst])})
					if cLast > cFirst {
						ok = ok && partial[1] == (partialChild{cLast, int(got[cLast])})
					} else {
						ok = ok && partial[1].rank < 0
					}
					if !ok {
						t.Fatalf("level %d run %d threshold %v children [%d,%d]: countStep = %d, %v; ranks %v",
							l, r, x, cFirst, cLast, covered, partial, got[:len(kids)])
					}
				}
			}
		}
	}
}

// TestOriginStripe builds trees on duplicate-heavy inputs across the stripe's
// parameter space — fanouts up to the one-byte limit (the first one past it
// must be rejected), sample distances below, at and above the fanout,
// ragged last runs, serial merges and mergeRunParallel
// pieces — and checks the stripe against the reference merge and the rank
// identity, plus count queries through the batched descent under both leaf
// seam settings.
func TestOriginStripe(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(79))
	for _, f := range []int{2, 8, 32, 256, 257} {
		for _, k := range []int{1, 7, 32, 64} {
			for _, n := range []int{f + 1, 1000, 5000} { // 5000: the top run merges in parallel pieces
				for _, opt := range []Options{
					{Fanout: f, SampleEvery: k},
					{Fanout: f, SampleEvery: k, Context: serialBuild},
				} {
					keys := randKeys(rng, n, int64(n)/8+2)
					tree, err := Build(keys, opt)
					if f > MaxFanout {
						var fe *FanoutError
						if !errors.As(err, &fe) || fe.Fanout != f {
							t.Fatalf("Build with fanout %d: error %v, want a FanoutError", f, err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, tree.tr)
					const m = 64
					lo, hi := make([]int32, m), make([]int32, m)
					thr := make([]int64, m)
					out := make([]int32, m)
					for q := range out {
						a := rng.Intn(n)
						lo[q], hi[q] = int32(a), int32(a+1+rng.Intn(n-a))
						if q%2 == 0 { // narrow: one row either side of the leaf cutoff
							hi[q] = int32(min(a+LeafRows-1+q%3, n))
						}
						thr[q] = rng.Int63n(int64(n)/8 + 4)
					}
					leafSeam(t, func(t *testing.T) {
						tree.CountBelowBatch(lo, hi, thr, out)
						for q := range out {
							if want := bruteCountBelow(keys, int(lo[q]), int(hi[q]), thr[q]); int(out[q]) != want {
								t.Fatalf("opt=%+v n=%d count[%d,%d)<%d: batch %d, want %d",
									opt, n, lo[q], hi[q], thr[q], out[q], want)
							}
						}
					})
				}
			}
		}
	}
}

func TestTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 31, 32, 33, 100, 1023, 1024, 1025} {
		for _, opt := range []Options{
			{},
			{Fanout: 2, SampleEvery: 1},
			{Fanout: 3, SampleEvery: 5},
			{Fanout: 4, SampleEvery: 2, Context: serialBuild},
			{Fanout: 7, SampleEvery: 3},
		} {
			keys := randKeys(rng, n, int64(n)/2+1) // duplicates guaranteed
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, tree.tr)
		}
	}
}

// TestSampleFormulaMatchesPaper checks the §5.1 element-count formula:
// ⌈log_f n⌉·n payload elements.
func TestSampleFormulaMatchesPaper(t *testing.T) {
	for _, c := range []struct{ n, f, wantLevels int }{
		{1024, 2, 10}, {1024, 32, 2}, {33, 32, 2}, {32, 32, 1}, {1000000, 32, 4},
	} {
		keys := make([]int64, c.n)
		tree, err := Build(keys, Options{Fanout: c.f})
		if err != nil {
			t.Fatal(err)
		}
		s := tree.Stats()
		if s.Levels != c.wantLevels+1 { // +1 for the base copy
			t.Fatalf("n=%d f=%d: levels = %d, want %d", c.n, c.f, s.Levels, c.wantLevels+1)
		}
		if s.Elements != s.Levels*c.n {
			t.Fatalf("n=%d f=%d: elements = %d, want %d", c.n, c.f, s.Elements, s.Levels*c.n)
		}
	}
}
