package mst

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAggBelowBatchMatchesScalar cross-checks AggBelowBatch against the
// reference fold aggRef with a string-concatenation merge, so any deviation
// in the take order — not just the take set — fails the test. The count
// output is cross-checked too.
func TestAggBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	merge := func(a, b string) string { return a + "|" + b }
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 4000, 4596} {
			keys := make([]int64, n)
			values := make([]string, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
				values[i] = strconv.Itoa(i)
			}
			at, err := BuildAnnotated(keys, values, merge, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := 2*n + 16
			lo := make([]int32, m)
			hi := make([]int32, m)
			thr := make([]int64, m)
			for q := 0; q < m; q++ {
				switch q % 4 {
				case 0: // sliding frame, monotone threshold
					lo[q] = int32(q / 2)
					hi[q] = int32(q/2 + 50)
					thr[q] = int64(q/2) + 1
				case 1: // random in-domain
					lo[q] = int32(rng.Intn(n + 1))
					hi[q] = lo[q] + int32(rng.Intn(n+1))
					thr[q] = int64(rng.Intn(n + 2))
				case 2: // duplicate of the previous query (dedup shape)
					lo[q], hi[q], thr[q] = lo[q-1], hi[q-1], thr[q-1]
				default: // clamping, trivial and full-span cases
					lo[q] = int32(rng.Intn(2*n+3) - n - 1)
					hi[q] = int32(rng.Intn(2*n+3) - n - 1)
					thr[q] = []int64{-1, 0, int64(n) + 7, math.MaxInt64, 3}[rng.Intn(5)]
				}
			}
			result := make([]string, m)
			okv := make([]bool, m)
			cnt := make([]int32, m)
			at.AggBelowBatch(lo, hi, thr, result, okv, cnt)
			ref := newAggRef(at.t.effLen, keys, values, merge)
			for q := 0; q < m; q++ {
				want, wantOK, wantCnt := ref.query(int(lo[q]), int(hi[q]), thr[q])
				if okv[q] != wantOK || (wantOK && result[q] != want) {
					t.Fatalf("opt=%+v n=%d query %d: AggBelowBatch(%d,%d,%d)=(%q,%v), reference=(%q,%v)",
						opt, n, q, lo[q], hi[q], thr[q], result[q], okv[q], want, wantOK)
				}
				if int(cnt[q]) != wantCnt {
					t.Fatalf("opt=%+v n=%d query %d: batch cnt=%d, reference=%d",
						opt, n, q, cnt[q], wantCnt)
				}
			}
		}
	}
}

// TestAggBelowBatchFloatBitIdentical pins the floating-point guarantee the
// collectors rely on: batched SUM-style merges are bit-identical to the
// reference fold, across magnitudes chosen so that any reordering changes the
// rounding — at batch lengths on both sides of every sub-batch boundary
// (aggSubBatch queries per descent), where a query answered from the wrong
// sub-batch's scratch or left out of both would show.
func TestAggBelowBatchFloatBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	merge := func(a, b float64) float64 { return a + b }
	n := 3000
	keys := make([]int64, n)
	values := make([]float64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(n + 1))
		values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	at, err := BuildAnnotated(keys, values, merge, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newAggRef(at.t.effLen, keys, values, merge)
	for _, m := range []int{aggSubBatch - 1, aggSubBatch, aggSubBatch + 1, 3*aggSubBatch + 1, 4 * n} {
		lo := make([]int32, m)
		hi := make([]int32, m)
		thr := make([]int64, m)
		for q := 0; q < m; q++ {
			lo[q] = int32(rng.Intn(n))
			hi[q] = lo[q] + int32(rng.Intn(n/2+1))
			thr[q] = int64(rng.Intn(n + 2))
		}
		result := make([]float64, m)
		okv := make([]bool, m)
		cnt := make([]int32, m)
		at.AggBelowBatch(lo, hi, thr, result, okv, cnt)
		for q := 0; q < m; q++ {
			want, wantOK, wantCnt := ref.query(int(lo[q]), int(hi[q]), thr[q])
			if okv[q] != wantOK {
				t.Fatalf("batch of %d, query %d: ok=%v reference=%v", m, q, okv[q], wantOK)
			}
			if wantOK && math.Float64bits(result[q]) != math.Float64bits(want) {
				t.Fatalf("batch of %d, query %d: batch sum %x differs from reference %x",
					m, q, math.Float64bits(result[q]), math.Float64bits(want))
			}
			if int(cnt[q]) != wantCnt {
				t.Fatalf("batch of %d, query %d: batch cnt=%d, reference=%d", m, q, cnt[q], wantCnt)
			}
		}
	}
}

// TestAggBatchFrameShapes pins kernel == reference == brute force for the
// aggregate descents on the frame shapes a window probe produces — sliding,
// constant, empty and whole-partition frames over previous-occurrence keys
// with the DISTINCT threshold lo+1 — across the step's parameter grid. The
// aggregate state pairs an integer sum, which brute force can reproduce, with
// a polynomial hash that is neither commutative nor associative, which kernel
// and reference (aggRef) only agree on when they fold the same takes in the
// same order.
func TestAggBatchFrameShapes(t *testing.T) {
	type state struct {
		sum  int64
		fold uint64
	}
	merge := func(a, b state) state { return state{a.sum + b.sum, a.fold*1000003 + b.fold} }
	rng := rand.New(rand.NewSource(61))
	const n = 1531 // ragged last run at every fanout of the grid
	vals := make([]int64, n)
	states := make([]state, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(40))
		states[i] = state{vals[i], uint64(i) + 1}
	}
	keys := prevIdcsRef(vals)
	shapes := []struct {
		name  string
		frame func(row int) (lo, hi int)
	}{
		{"sliding", func(row int) (int, int) { return max(row-99, 0), row + 1 }},
		{"sliding-centered", func(row int) (int, int) { return max(row-700, 0), min(row+700, n) }},
		{"constant", func(int) (int, int) { return 517, 1203 }},
		{"empty", func(row int) (int, int) { return row, row - row%2 }},
		{"whole-partition", func(int) (int, int) { return 0, n }},
	}
	lo, hi := make([]int32, n), make([]int32, n)
	thr := make([]int64, n)
	res := make([]state, n)
	okv := make([]bool, n)
	cnt := make([]int32, n)
	sums := make([]int64, n)
	nums := make([]int, n)
	grid := stepGrid()
	trees := make([]*AnnotatedTree[state], 0, len(grid))
	refs := make([]*aggRef[state], 0, len(grid))
	for _, opt := range grid {
		at, err := BuildAnnotated(keys, states, merge, opt)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, at)
		refs = append(refs, newAggRef(at.t.effLen, keys, states, merge))
	}
	for _, sh := range shapes {
		for row := 0; row < n; row++ {
			a, b := sh.frame(row)
			lo[row], hi[row], thr[row] = int32(a), int32(b), int64(a)+1
			sums[row], nums[row] = 0, 0
			for i := a; i < b; i++ {
				if keys[i] < thr[row] {
					sums[row] += vals[i]
					nums[row]++
				}
			}
		}
		for ti, at := range trees {
			at.AggBelowBatch(lo, hi, thr, res, okv, cnt)
			for row := 0; row < n; row++ {
				sum, num := sums[row], nums[row]
				want, wantOK, _ := refs[ti].query(int(lo[row]), int(hi[row]), thr[row])
				if okv[row] != (num > 0) || wantOK != (num > 0) || int(cnt[row]) != num ||
					(num > 0 && (res[row] != want || want.sum != sum)) {
					t.Fatalf("opt=%+v %s row %d [%d,%d)<%d: kernel (%+v, %v, cnt %d), reference (%+v, %v), brute force sum %d of %d",
						grid[ti], sh.name, row, lo[row], hi[row], thr[row], res[row], okv[row], cnt[row], want, wantOK, sum, num)
				}
			}
		}
	}
}
