package mst

import (
	"math/rand"
	"testing"
)

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
				gotPos, gotOK := tree.SelectKthRanges(ranges, k)
				wantPos, wantOK := bruteSelectRanges(keys, ranges, k)
				if gotOK != wantOK || (gotOK && gotPos != wantPos) {
					t.Fatalf("n=%d opt=%+v ranges=%v k=%d: got (%d,%v) want (%d,%v)",
						n, opt, ranges, k, gotPos, gotOK, wantPos, wantOK)
				}
				// CountRanges over the full position span must agree with
				// the number of qualifying entries.
				total := 0
				for _, v := range keys {
					for _, r := range ranges {
						if v >= r[0] && v < r[1] {
							total++
							break
						}
					}
				}
				if got := tree.CountRanges(0, n, ranges); got != total {
					t.Fatalf("CountRanges = %d, want %d", got, total)
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
	if _, ok := tree.SelectKthRanges(nil, 0); ok {
		t.Fatal("no ranges must select nothing")
	}
	if _, ok := tree.SelectKthRanges([][2]int64{{3, 3}, {9, 9}}, 0); ok {
		t.Fatal("empty ranges must select nothing")
	}
	if pos, ok := tree.SelectKthRanges([][2]int64{{0, 3}, {6, 9}}, 1); !ok || pos != 2 {
		t.Fatalf("got (%d,%v), want (2,true)", pos, ok)
	}
}
