package mst

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// FuzzCountSelect cross-checks the tree's count and select queries — the
// batched level-synchronous kernels and CountBelow, their batch of one —
// against brute force over fuzzer-chosen inputs, tree options and query arguments — the
// counts once with the leaf path at its cutoff and once with it off
// (leafSeam), each batch followed by a sliding sequence the differential
// pass answers from neighbours, and a sliding select sequence likewise — the
// counts also on the sliding form of the same keys (slidingTree), and, in
// the leaf-only arm (leafOnlyCounts), on the leaf-only form. CI runs it as
// a smoke pass on main pushes; `go test -fuzz=FuzzCountSelect
// ./internal/mst/` digs deeper locally.
func FuzzCountSelect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 0, 9}, 0, 7, int64(4), 2, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), 0, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), 0, uint8(2), uint8(1), uint8(7))
	f.Add([]byte{9, 9, 1, 9, 0, 3, 3, 251, 3}, 2, 8, int64(9), 1, uint8(239), uint8(225), uint8(0)) // f = 256
	f.Add([]byte{9, 9, 1, 9, 0, 3, 3, 251, 3}, 2, 8, int64(9), 1, uint8(240), uint8(255), uint8(0)) // f = 257: rejected
	// 300 and 600 rows: past LeafRows, so the descent also runs at the
	// production cutoff.
	f.Add(fuzzSeedBytes(300, 7), 40, 290, int64(120), 17, uint8(30), uint8(31), uint8(0))
	f.Add(fuzzSeedBytes(600, 11), 3, 420, int64(300), 250, uint8(2), uint8(5), uint8(1))
	// Keys below n, so the tree keeps top-run positions, and k = 26 slides
	// both edges and the threshold up by one per query.
	f.Add(fuzzSeedBytes(600, 19), 50, 450, int64(51), 26, uint8(30), uint8(31), uint8(0))
	// k = 35 slides the select range [20, 400) up by one per query at a fixed
	// rank, in one range and, with flags 16, three EXCLUDE TIES-style ranges.
	f.Add(fuzzSeedBytes(600, 23), 20, 400, int64(100), 35, uint8(30), uint8(31), uint8(0))
	f.Add(fuzzSeedBytes(600, 29), 20, 400, int64(100), 35, uint8(1), uint8(2), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, threshold int64, k int, fanout, sampleEvery, flags uint8) {
		keys := make([]int64, len(data))
		for i, b := range data {
			// Non-negative keys per Build's contract; a few values land past
			// the 32-bit payload domain (buildInDomain).
			keys[i] = int64(b)
			if b >= 250 {
				keys[i] = int64(b) << 24
			}
		}
		opt := Options{ // flags&2 is unused: the corpus keeps decoding as it did; flags>>3 shapes the sliding select
			Fanout:      fuzzParam(fanout, 2, 7),
			SampleEvery: fuzzParam(sampleEvery, 1, 15),
			NoCascading: flags&1 != 0,
		}
		if flags&4 != 0 {
			opt.Context = serialBuild
		}
		tree := buildInDomain(t, keys, opt)
		if tree == nil {
			return
		}
		// Counts on the full tree and on the sliding form of the same keys
		// (full again when a key exceeds n).
		fuzzCounts(t, tree, keys, opt, lo, hi, threshold, k)
		fuzzCounts(t, slidingTree(t, keys, opt), keys, opt, lo, hi, threshold, k)
		leafOnlyCounts(t, keys, opt, lo, hi, threshold)

		// Select through the batched kernel on the shapes frame exclusion
		// produces: the single range [0, threshold) twice (the
		// gallop-from-equal shape), then two and three sorted disjoint ranges
		// cut at the fuzzer's arguments (the middle one possibly empty).
		cuts := []int64{int64(lo), int64(hi), threshold, int64(k)}
		for i := range cuts {
			cuts[i] = min(max(cuts[i], -2), 1<<33) // keys stay below 2³³
		}
		slices.Sort(cuts)
		shapes := [][][2]int64{
			{{0, threshold}},
			{{0, threshold}},
			{{cuts[0], cuts[1]}, {cuts[2], cuts[3]}},
			{{cuts[0], cuts[1]}, {min(cuts[1]+1, cuts[2]), cuts[2]}, {cuts[3], cuts[3] + 17}},
		}
		sOff := []int32{0}
		var sVlo, sVhi []int64
		for _, ranges := range shapes {
			for _, r := range ranges {
				sVlo, sVhi = append(sVlo, r[0]), append(sVhi, r[1])
			}
			sOff = append(sOff, int32(len(sVlo)))
		}
		kq := int32(k) // may wrap for huge k; every oracle below uses the wrapped value
		sK := []int32{kq, kq, kq, kq}
		sOut := make([]int32, len(shapes))
		tree.SelectKthRangesBatch(sOff, sVlo, sVhi, sK, sOut)
		for q, ranges := range shapes {
			wantB := int32(-1)
			if pos, ok := bruteSelectRanges(keys, ranges, int(kq)); ok && kq >= 0 {
				wantB = int32(pos)
			}
			if sOut[q] != wantB {
				t.Errorf("select %v k=%d: SelectKthRangesBatch %d, brute force %d (opt %+v)",
					ranges, kq, sOut[q], wantB, opt)
			}
		}

		// A sliding select sequence from the fuzzer's query: the value range
		// [lo, hi) steps like the sliding counts and k by −1…1 per query
		// (picked by k), as one range, two around its middle (EXCLUDE CURRENT
		// ROW) or three (EXCLUDE TIES) by flags>>3, so neighbours are answered
		// from one another (select_diff.go).
		leafSeam(t, func(t *testing.T) {
			dl, dh, dk := k%3-1, k/3%3-1, k/27%3-1
			const slide = 48
			var slOff []int32
			var slVlo, slVhi []int64
			slK := make([]int32, slide)
			for s := range slK {
				l, h := int64(lo+s*dl), int64(hi+s*dh)
				c := (l + h) / 2
				var ranges [][2]int64
				switch flags >> 3 % 3 {
				case 0:
					ranges = [][2]int64{{l, h}}
				case 1:
					ranges = [][2]int64{{l, c}, {c + 1, h}}
				default:
					ranges = [][2]int64{{l, c - 1}, {c, c + 1}, {c + 2, h}}
				}
				slOff = append(slOff, int32(len(slVlo)))
				for _, r := range ranges {
					slVlo, slVhi = append(slVlo, r[0]), append(slVhi, r[1])
				}
				slK[s] = int32(k + s*dk)
			}
			slOff = append(slOff, int32(len(slVlo)))
			slOut := make([]int32, slide)
			tree.SelectKthRangesBatch(slOff, slVlo, slVhi, slK, slOut)
			for s := range slOut {
				ranges := batchRanges(slOff, slVlo, slVhi, s)
				wantS := int32(-1)
				if pos, ok := bruteSelectRanges(keys, ranges, int(slK[s])); ok && slK[s] >= 0 {
					wantS = int32(pos)
				}
				if slOut[s] != wantS {
					t.Errorf("sliding select %d %v k=%d: SelectKthRangesBatch %d, brute force %d (opt %+v)",
						s, ranges, slK[s], slOut[s], wantS, opt)
				}
			}
		})
	})
}

// fuzzCounts is FuzzCountSelect's count check on one tree over keys, under
// both leaf seam settings: the batch repeats the fuzzer's query (exercising
// the dedup/gallop-from-equal shape), perturbs it (bidirectional galloping),
// covers the full span and adds ranges one row either side of LeafRows.
func fuzzCounts(t *testing.T, tree *Tree, keys []int64, opt Options, lo, hi int, threshold int64, k int) {
	t.Helper()
	leafSeam(t, func(t *testing.T) {
		got := tree.CountBelow(lo, hi, threshold)
		want := 0
		cLo, cHi := clampRange(lo, hi, len(keys))
		for _, v := range keys[cLo:cHi] {
			if v < threshold {
				want++
			}
		}
		if got != want {
			t.Errorf("CountBelow(%d, %d, %d) = %d, brute force %d (%s form, opt %+v)", lo, hi, threshold, got, want, tree.Form(), opt)
		}

		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(keys)), int32(hi + 3)}
		bThr := []int64{threshold, threshold, threshold, threshold - 1}
		for _, w := range []int32{LeafRows - 1, LeafRows, LeafRows + 1} {
			bLo, bHi, bThr = append(bLo, int32(lo)), append(bHi, int32(lo)+w), append(bThr, threshold)
		}
		bOut := make([]int32, len(bLo))
		tree.CountBelowBatch(bLo, bHi, bThr, bOut)
		for q := range bOut {
			bruteCnt := 0
			qLo, qHi := clampRange(int(bLo[q]), int(bHi[q]), len(keys))
			for _, v := range keys[qLo:qHi] {
				if v < bThr[q] {
					bruteCnt++
				}
			}
			if int(bOut[q]) != bruteCnt {
				t.Errorf("CountBelowBatch query %d (%d, %d, %d) = %d, brute force %d (%s form, opt %+v)",
					q, bLo[q], bHi[q], bThr[q], bOut[q], bruteCnt, tree.Form(), opt)
			}
		}

		// A sliding sequence from the fuzzer's query: each edge and the
		// threshold step by −3…1 per query (picked by k), so neighbours
		// are close enough to be answered from one another (count_diff.go).
		dl, dh, dt := k%3-1, k/3%3-1, int64(k/9%3-1)
		const slide = 48
		sLo, sHi, sThr := make([]int32, slide), make([]int32, slide), make([]int64, slide)
		for s := range sLo {
			sLo[s], sHi[s], sThr[s] = int32(lo+s*dl), int32(hi+s*dh), threshold+int64(s)*dt
		}
		sOut := make([]int32, slide)
		tree.CountBelowBatch(sLo, sHi, sThr, sOut)
		for s := range sOut {
			if want := bruteCountBelow(keys, int(sLo[s]), int(sHi[s]), sThr[s]); int(sOut[s]) != want {
				t.Errorf("CountBelowBatch sliding query %d (%d, %d, %d) = %d, brute force %d (%s form, opt %+v)",
					s, sLo[s], sHi[s], sThr[s], sOut[s], want, tree.Form(), opt)
			}
		}
	})
}

// fuzzSeedBytes is a deterministic seed input of n bytes below 250, so every
// byte decodes to an in-domain key.
func fuzzSeedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(250))
	}
	return b
}

// FuzzAggBatch cross-checks the batched aggregate kernel against the
// reference fold aggRef: results must be byte-identical (the merge is an
// order-sensitive string concatenation, so any reordering of the take fold
// shows up immediately), ok flags must agree, and so must the count side
// output. Two flag bits stretch the batch across the kernel's sub-batch
// boundaries. A string state never takes the leaf path, so an int64 arm —
// values whose sums wrap — checks kernel against brute force under both
// leaf seam settings, with ranges one row either side of
// LeafRows in the batch; a leaf-only arm (leafOnlyAggs) checks
// BuildAnnotatedLeaves' form of the int64 tree.
func FuzzAggBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 0, 9}, 0, 7, int64(4), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), uint8(2), uint8(1), uint8(7))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 10, 12}, 2, 11, int64(3), uint8(0), uint8(3), uint8(2))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 10, 12}, 0, 13, int64(6), uint8(1), uint8(0), uint8(4))
	f.Add([]byte{3, 3, 0, 1, 2, 250, 4, 4}, 1, 7, int64(2), uint8(5), uint8(9), uint8(6))
	// 300 and 640 rows: past LeafRows, so the descent also runs at the
	// production cutoff.
	f.Add(fuzzSeedBytes(300, 13), 20, 200, int64(30), uint8(30), uint8(31), uint8(0))
	f.Add(fuzzSeedBytes(640, 17), 100, 400, int64(150), uint8(2), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, threshold int64, fanout, sampleEvery, flags uint8) {
		keys := make([]int64, len(data))
		vals := make([]string, len(data))
		ivals := make([]int64, len(data))
		for i, b := range data {
			// Annotated keys live in the previous-index domain [0, n].
			keys[i] = int64(int(b) % (len(data) + 1))
			vals[i] = string(rune('a' + int(b)%26))
			ivals[i] = int64(b)<<56 | int64(i) // two of them can wrap
		}
		opt := Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0,
		}
		merge := func(a, b string) string { return a + "|" + b }
		at, err := BuildAnnotated(keys, vals, merge, opt)
		if err != nil {
			t.Fatalf("BuildAnnotated(%d keys, %+v): %v", len(keys), opt, err)
		}
		ref := newAggRef(at.t.effLen, keys, vals, merge)
		// Repeat, perturb and full-span the query so the batch sees equal and
		// neighbouring thresholds and the top-level fast path in one pass.
		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(keys)), int32(hi + 3)}
		bThr := []int64{threshold, threshold, threshold, threshold - 1}
		// flags&6 repeats the four with drifting bounds up to a batch length
		// just short of, just past, or several times the sub-batch size.
		for q, m := 4, []int{4, aggSubBatch - 1, aggSubBatch + 1, 3*aggSubBatch + 1}[flags>>1&3]; q < m; q++ {
			bLo = append(bLo, bLo[q%4]+int32(q%5))
			bHi = append(bHi, bHi[q%4]-int32(q%3))
			bThr = append(bThr, bThr[q%4]+int64(q%7))
		}
		for _, w := range []int32{LeafRows - 1, LeafRows, LeafRows + 1} {
			bLo, bHi, bThr = append(bLo, int32(lo)), append(bHi, int32(lo)+w), append(bThr, threshold)
		}
		res := make([]string, len(bLo))
		ok := make([]bool, len(bLo))
		cnt := make([]int32, len(bLo))
		at.AggBelowBatch(bLo, bHi, bThr, res, ok, cnt)
		for q := range bLo {
			wantRes, wantOK, wantCnt := ref.query(int(bLo[q]), int(bHi[q]), bThr[q])
			if ok[q] != wantOK || (ok[q] && res[q] != wantRes) {
				t.Errorf("AggBelowBatch query %d (%d, %d, %d) = (%q, %v), reference (%q, %v) (opt %+v)",
					q, bLo[q], bHi[q], bThr[q], res[q], ok[q], wantRes, wantOK, opt)
			}
			if int(cnt[q]) != wantCnt {
				t.Errorf("AggBelowBatch query %d count = %d, reference %d (opt %+v)",
					q, cnt[q], wantCnt, opt)
			}
		}

		it, err := BuildAnnotated(keys, ivals, func(a, b int64) int64 { return a + b }, opt)
		if err != nil {
			t.Fatalf("BuildAnnotated(%d int64 keys, %+v): %v", len(keys), opt, err)
		}
		leafSeam(t, func(t *testing.T) {
			sums := make([]int64, len(bLo))
			wantLeaves := 0
			leaves := it.AggBelowBatch(bLo, bHi, bThr, sums, ok, cnt)
			for q := range bLo {
				qLo, qHi := clampRange(int(bLo[q]), int(bHi[q]), len(keys))
				var want int64
				num := 0
				for j := qLo; j < qHi; j++ {
					if keys[j] < bThr[q] {
						want += ivals[j]
						num++
					}
				}
				if qHi > qLo && qHi-qLo <= leafRows && bThr[q] > 0 {
					wantLeaves++
				}
				if ok[q] != (num > 0) || int(cnt[q]) != num || (num > 0 && sums[q] != want) {
					t.Errorf("int64 AggBelowBatch query %d (%d, %d, %d) = (%d, %v, cnt %d), brute force %d of %d (opt %+v)",
						q, bLo[q], bHi[q], bThr[q], sums[q], ok[q], cnt[q], want, num, opt)
				}
			}
			if leaves != wantLeaves {
				t.Errorf("int64 AggBelowBatch reports %d queries at the leaves, want %d (opt %+v)", leaves, wantLeaves, opt)
			}
		})
		leafOnlyAggs(t, keys, ivals, opt, lo, hi, threshold)
	})
}

// fuzzParam maps a fuzz byte to a fanout or sample distance: mostly the
// small values (base .. base+small-1) that make fuzz-sized inputs deep
// trees, plus the band 241..272 around MaxFanout, the 256-child limit of the
// one-byte origin stripe (f = 256 for byte 239; f = 257 for byte 240 is the
// first fanout Build must reject, see rejectedFanout).
func fuzzParam(b uint8, base, small int) int {
	if b >= 224 {
		return 17 + int(b)
	}
	return base + int(b)%small
}

// buildInDomain builds the tree a fuzz target probes, or returns nil when
// opt's fanout is rightly rejected. The corpora decode some bytes to keys
// past the 32-bit payload domain (b << 24 for b >= 250): Build must answer
// those with a PayloadRangeError naming the first such key, after which the
// target goes on with them halved, in place, into the top of the domain
// (b << 23) — still the keys that exercise thresholds around math.MaxInt32.
func buildInDomain(t *testing.T, keys []int64, opt Options) *Tree {
	t.Helper()
	tree, err := Build(keys, opt)
	if rejectedFanout(t, opt, err) {
		return nil
	}
	if first := slices.IndexFunc(keys, func(v int64) bool { return v > maxKey }); first >= 0 {
		var pe *PayloadRangeError
		if !errors.As(err, &pe) || pe.Pos != first || pe.Value != keys[first] {
			t.Fatalf("Build with key %d at %d: error %v, want a PayloadRangeError", keys[first], first, err)
		}
		for i, v := range keys {
			if v > maxKey {
				keys[i] = v >> 1
			}
		}
		tree, err = Build(keys, opt)
	}
	if err != nil {
		t.Fatalf("Build(%d keys, %+v): %v", len(keys), opt, err)
	}
	return tree
}

// rejectedFanout reports whether opt asks for a fanout past MaxFanout, and
// fails the test unless Build answered it with a FanoutError.
func rejectedFanout(t *testing.T, opt Options, err error) bool {
	t.Helper()
	if opt.Fanout <= MaxFanout {
		return false
	}
	var fe *FanoutError
	if !errors.As(err, &fe) || fe.Fanout != opt.Fanout {
		t.Fatalf("Build with fanout %d: error %v, want a FanoutError", opt.Fanout, err)
	}
	return true
}

func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}
