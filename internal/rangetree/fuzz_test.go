package rangetree

import (
	"errors"
	"math/rand"
	"testing"

	"holistic/internal/mst"
)

// FuzzDenseRankBatch cross-checks the depth-synchronous batched probe and
// the scalar canonical-decomposition walk against brute force over
// fuzzer-chosen rank arrays, previous-occurrence links, tree options and
// query arguments, once with the leaf path at its cutoff and once with it off
// (leafSeam). The batch repeats, perturbs and full-spans the query so grouped
// inner-tree descents, singleton scalar groups and clamping all run in one
// pass, and adds frames one row either side of the cutoff. A leaf-only arm
// (leafOnlyArm) checks NewLeaves' form of the same arrays.
func FuzzDenseRankBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 0, 0, 9}, 0, 7, int64(4), int64(2), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), int64(0), uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), int64(1), uint8(2), uint8(1), uint8(7))
	f.Add([]byte("0000000000000000\""), 0, 17, int64(73), int64(1), uint8(2), uint8(1), uint8(7)) // a 17-row node: nested tree, prevIdx -1
	// 300 and 520 rows: past the cutoff, so the decomposition also runs at
	// the production setting.
	f.Add(seedBytes(300, 5), 30, 280, int64(9), int64(40), uint8(30), uint8(31), uint8(0))
	f.Add(seedBytes(520, 9), 7, 400, int64(12), int64(200), uint8(2), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, rankThr, prevThr int64, fanout, sampleEvery, flags uint8) {
		ranks := make([]int64, len(data))
		prevs := make([]int64, len(data))
		for i, b := range data {
			ranks[i] = int64(b % 16) // low cardinality: rank ties are the interesting case
			prevs[i] = int64(int(b)%(len(data)+1)) - 1
		}
		opt := mst.Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0, // flags&4 is unused: the corpus keeps decoding as it did
		}
		rt, err := New(ranks, prevs, opt)
		// The decoding is unshifted: -1 means "no previous occurrence". Nodes
		// below smallNode scan it as it is; a nested tree must reject it, and
		// the target goes on in the shifted form of §5.1.
		var pe *mst.PayloadRangeError
		if errors.As(err, &pe) {
			if pe.Value != -1 || len(data) < smallNode {
				t.Fatalf("New(%d rows, %+v): %v", len(ranks), opt, err)
			}
			for i := range prevs {
				prevs[i]++
			}
			prevThr++
			rt, err = New(ranks, prevs, opt)
		}
		if err != nil {
			t.Fatalf("New(%d rows, %+v): %v", len(ranks), opt, err)
		}
		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(ranks)), int32(hi + 3)}
		bRank := []int64{rankThr, rankThr, rankThr, rankThr - 1}
		bPrev := []int64{prevThr, prevThr, prevThr, prevThr + 1}
		for _, w := range []int32{mst.LeafRows - 1, mst.LeafRows, mst.LeafRows + 1} {
			bLo, bHi = append(bLo, int32(lo)), append(bHi, int32(lo)+w)
			bRank, bPrev = append(bRank, rankThr), append(bPrev, prevThr)
		}
		out := make([]int32, len(bLo))
		leafSeam(t, func(t *testing.T) {
			wantLeaves := 0
			leaves := rt.CountDistinctBelowBatch(bLo, bHi, bRank, bPrev, out)
			for q := range bLo {
				qLo, qHi := max(int(bLo[q]), 0), min(int(bHi[q]), len(ranks))
				want := 0
				for j := qLo; j < qHi; j++ {
					if ranks[j] < bRank[q] && prevs[j] < bPrev[q] {
						want++
					}
				}
				if qHi > qLo && qHi-qLo <= leafRows {
					wantLeaves++
				}
				scalar := rt.CountDistinctBelow(int(bLo[q]), int(bHi[q]), bRank[q], bPrev[q])
				if int(out[q]) != want || scalar != want {
					t.Errorf("query %d (%d, %d, rank<%d, prev<%d): CountDistinctBelowBatch %d, scalar %d, brute force %d (opt %+v)",
						q, bLo[q], bHi[q], bRank[q], bPrev[q], out[q], scalar, want, opt)
				}
			}
			if leaves != wantLeaves {
				t.Errorf("CountDistinctBelowBatch reports %d queries at the leaves, want %d (opt %+v)", leaves, wantLeaves, opt)
			}
		})
		leafOnlyArm(t, ranks, prevs, lo, hi, rankThr, prevThr)
	})
}

// leafOnlyArm is FuzzDenseRankBatch's leaf-only arm: NewLeaves over the same
// arrays answers frames of at most mst.LeafRows rows like brute force,
// through the batched and the scalar probe, owns no bytes, and refuses a
// wider frame — CheckRows with a *mst.WidthError, the probes by their
// invariant.
func leafOnlyArm(t *testing.T, ranks, prevs []int64, lo, hi int, rankThr, prevThr int64) {
	t.Helper()
	lt, err := NewLeaves(ranks, prevs)
	if err != nil {
		t.Fatalf("NewLeaves(%d rows): %v", len(ranks), err)
	}
	if lt.MemBytes() != 0 {
		t.Errorf("NewLeaves(%d rows): MemBytes %d; want a structure owning nothing", len(ranks), lt.MemBytes())
	}
	n := len(ranks)
	a, b := max(lo, 0), min(hi, n)
	if a > b {
		a, b = 0, 0
	}
	b = min(b, a+mst.LeafRows)
	bLo := []int32{int32(a), int32(max(b-1, a)), 0, int32(a)}
	bHi := []int32{int32(b), int32(b), int32(min(n, mst.LeafRows)), int32(min(n, a+mst.LeafRows))}
	bRank := []int64{rankThr, rankThr, rankThr + 1, rankThr - 1}
	bPrev := []int64{prevThr, prevThr + 1, prevThr, prevThr}
	out := make([]int32, len(bLo))
	lt.CountDistinctBelowBatch(bLo, bHi, bRank, bPrev, out)
	for q := range bLo {
		want := 0
		for j := bLo[q]; j < bHi[q]; j++ {
			if ranks[j] < bRank[q] && prevs[j] < bPrev[q] {
				want++
			}
		}
		scalar := lt.CountDistinctBelow(int(bLo[q]), int(bHi[q]), bRank[q], bPrev[q])
		if int(out[q]) != want || scalar != want {
			t.Errorf("leaf-only query %d (%d, %d, rank<%d, prev<%d): batch %d, scalar %d, brute force %d",
				q, bLo[q], bHi[q], bRank[q], bPrev[q], out[q], scalar, want)
		}
	}
	var we *mst.WidthError
	if err := lt.CheckRows(mst.LeafRows + 1); !errors.As(err, &we) || we.Rows != mst.LeafRows+1 || we.Max != mst.LeafRows {
		t.Errorf("CheckRows(%d) on a leaf-only structure: %v, want a *mst.WidthError", mst.LeafRows+1, err)
	}
	if n <= mst.LeafRows {
		return
	}
	for name, probe := range map[string]func(){
		"CountDistinctBelow":      func() { lt.CountDistinctBelow(0, n, rankThr, prevThr) },
		"CountDistinctBelowBatch": func() { lt.CountDistinctBelowBatch([]int32{0}, []int32{int32(n)}, bRank[:1], bPrev[:1], out[:1]) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*mst.WidthError); !ok {
					t.Errorf("%s over %d rows on a leaf-only structure: no *mst.WidthError panic", name, n)
				}
			}()
			probe()
		}()
	}
}

// seedBytes is a deterministic seed input of n bytes.
func seedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}
