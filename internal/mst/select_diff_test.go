package mst

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSelectBatchDifferential pins the differential select pass
// (select_diff.go): batches that mix sliding, growing, shrinking and jumping
// frames; one to three ranges with EXCLUDE-style gaps and range counts that
// change mid-batch; k past the qualifying total or negative in the middle of
// a sliding run; PERCENTILE_CONT's back-to-back k0/k0+1 pairs; k jumping
// between the first and the last entry of a fixed frame, whose walks run to
// either end of level 0 or past the budget; and frames stepping by half the
// budget, whose band cost lands on it and one below. They run over a
// permutation, keys with ties and keys above n, on striped, deep and
// NoCascading trees, under both leaf seam settings. Every answer must equal
// brute force, and the kernel must report
// exactly the queries the anchor rule and the walk's reach name as answered
// from their predecessor: some on every tree with top-run positions at the
// production cutoff, none without positions or with the cutoff at 0.
func TestSelectBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n = 3000
	perm := make([]int64, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int64(p)
	}
	inputs := []struct {
		name      string
		keys      []int64
		positions bool
	}{
		{"permutation", perm, true},
		{"ties", randKeys(rng, n, n), true},
		{"keys above n", randKeys(rng, n, 4*n), false},
	}
	off, vlo, vhi, k := selectDiffBatch(rng, n, 6000)
	out := make([]int32, len(k))
	for _, in := range inputs {
		want := make([]int32, len(k))
		for q := range k {
			want[q] = -1
			if pos, ok := bruteSelectRanges(in.keys, batchRanges(off, vlo, vhi, q), int(k[q])); ok && k[q] >= 0 {
				want[q] = int32(pos)
			}
		}
		t.Run(in.name, func(t *testing.T) {
			leafSeam(t, func(t *testing.T) {
				for _, opt := range []Options{{}, {Fanout: 2, SampleEvery: 1}, {Fanout: 5, SampleEvery: 3, NoCascading: true}} {
					tree, err := Build(in.keys, opt)
					if err != nil {
						t.Fatal(err)
					}
					if (tree.tr.topPos != nil) != in.positions {
						t.Fatalf("%s opt=%+v: top-run positions present = %v, want %v", in.name, opt, tree.tr.topPos != nil, in.positions)
					}
					diffs := tree.SelectKthRangesBatch(off, vlo, vhi, k, out)
					for q := range out {
						if out[q] != want[q] {
							t.Fatalf("%s opt=%+v query %d %v k=%d: kernel %d, brute force %d",
								in.name, opt, q, batchRanges(off, vlo, vhi, q), k[q], out[q], want[q])
						}
					}
					if w := wantSelectDiffs(in.keys, in.positions, off, vlo, vhi, k, want); diffs != w {
						t.Errorf("%s opt=%+v: %d queries answered from their predecessor, the anchor rule names %d", in.name, opt, diffs, w)
					}
					if leafRows > 0 && in.positions && diffs == 0 {
						t.Errorf("%s opt=%+v: no query answered from its predecessor", in.name, opt)
					}
				}
			})
		})
	}
}

// batchRanges returns query q's ranges of a flattened batch.
func batchRanges(off []int32, vlo, vhi []int64, q int) [][2]int64 {
	var r [][2]int64
	for j := off[q]; j < off[q+1]; j++ {
		r = append(r, [2]int64{vlo[j], vhi[j]})
	}
	return r
}

// wantSelectDiffs restates which queries of a batch the kernel answers from
// the query before it, given the brute-force answers ans (-1: none). A query
// is answered when ans >= 0; an answered query q is differential when the
// tree keeps top-run positions, an answered query p precedes it, both have
// the same number of ranges, the ranges' bounds moved by fewer than the
// budget ranks in all, and q's answer lies within the budget of p's: at most
// budget entries before it or fewer than budget entries from it onwards.
func wantSelectDiffs(keys []int64, positions bool, off []int32, vlo, vhi []int64, k, ans []int32) int {
	if !positions {
		return 0
	}
	budget := selectBudgetLeaves * leafRows
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	rank := func(x int64) int { return sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x }) }
	want, p := 0, -1
	for q := range k {
		if ans[q] < 0 {
			continue
		}
		if p >= 0 && off[q+1]-off[q] == off[p+1]-off[p] {
			cost := 0
			for j := int32(0); j < off[q+1]-off[q]; j++ {
				pj, qj := off[p]+j, off[q]+j
				cost += absInt(rank(vlo[qj])-rank(vlo[pj])) + absInt(rank(max(vhi[qj], vlo[qj]))-rank(max(vhi[pj], vlo[pj])))
			}
			if a := int(ans[p]); cost < budget && int(ans[q]) >= a-budget && int(ans[q]) < a+budget {
				want++
			}
		}
		p = q
	}
	return want
}

// selectDiffBatch is TestSelectBatchDifferential's batch of about m select
// queries over values [0, n): stretches of 10–50 queries of one shape at a
// time, each continuing from where the previous stretch left the frame
// [a, b), with k at one fraction of the frame size per stretch.
func selectDiffBatch(rng *rand.Rand, n, m int) (off []int32, vlo, vhi []int64, k []int32) {
	off = []int32{0}
	push := func(kq int, ranges ...[2]int) {
		for _, r := range ranges {
			vlo, vhi = append(vlo, int64(r[0])), append(vhi, int64(r[1]))
		}
		off = append(off, int32(len(vlo)))
		k = append(k, int32(kq))
	}
	const step = LeafRows * selectBudgetLeaves / 2 // a band cost of the budget per single-range step
	a, b := 0, n/3
	for len(k) < m {
		if a < 0 || b > n || b-a < 8 {
			a = rng.Intn(n / 2)
			b = a + 8 + rng.Intn(n/2)
		}
		frac := rng.Float64()
		at := func(size int) int { return int(frac * float64(size-1)) }
		stretch := 10 + rng.Intn(41)
		switch rng.Intn(11) {
		case 0: // sliding
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				push(at(b-a), [2]int{a, b})
			}
		case 1: // growing at both ends
			for s := 0; s < stretch; s++ {
				a, b = a-rng.Intn(3), b+rng.Intn(3)
				push(at(b-a), [2]int{a, b})
			}
		case 2: // shrinking at both ends
			for s := 0; s < stretch; s++ {
				a, b = a+rng.Intn(3), b-rng.Intn(3)
				push(at(b-a), [2]int{a, b})
			}
		case 3: // jumping frames
			for s := 0; s < stretch; s++ {
				a = rng.Intn(n - 10)
				b = a + 1 + rng.Intn(n-a)
				push(at(b-a), [2]int{a, b})
			}
		case 4: // EXCLUDE CURRENT ROW: [a, c) and [c+1, b) around row c
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				c := (a + b) / 2
				push(at(b-a-1), [2]int{a, c}, [2]int{c + 1, b})
			}
		case 5: // EXCLUDE TIES: the current row kept, the rest of its peer group of four cut
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				c := (a + b) / 2
				g0, g1 := c/4*4, min(c/4*4+4, b)
				push(at(g0-a+1+b-g1), [2]int{a, g0}, [2]int{c, c + 1}, [2]int{g1, b})
			}
		case 6: // the range count changes mid-run: the current row leaves and rejoins
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				if c := (a + b) / 2; s%3 == 0 {
					push(at(b-a-1), [2]int{a, c}, [2]int{c + 1, b})
				} else {
					push(at(b-a), [2]int{a, b})
				}
			}
		case 7: // k past the total or negative in the middle of a sliding run
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				switch s % 6 {
				case 2:
					push(b-a+rng.Intn(3), [2]int{a, b})
				case 4:
					push(-1, [2]int{a, b})
				default:
					push(at(b-a), [2]int{a, b})
				}
			}
		case 8: // PERCENTILE_CONT's interpolation pairs
			for s := 0; s < stretch; s++ {
				a, b = a+1, b+1
				k0 := at(b - a)
				push(k0, [2]int{a, b})
				if k0+1 < b-a {
					push(k0+1, [2]int{a, b})
				}
			}
		case 9: // FIRST_VALUE and LAST_VALUE of one frame in turn: walks to either end
			for s := 0; s < stretch; s++ {
				push((b-a-1)*(s%2), [2]int{a, b})
			}
		default: // frames stepping by half the budget and one row less
			for s := 0; s < stretch; s++ {
				d := step - s%2
				a, b = a+d, b+d
				push(at(b-a), [2]int{a, b})
			}
		}
	}
	return off, vlo, vhi, k
}
