package mst

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// witness is the aggregate tests' state for entry i: mix64(i), summed with
// wrapping addition (mergeWitness). The sum is commutative, as the kernel's
// in-place adds require, and mix64 spreads positions over all 64 bits, so a
// fold that takes an entry twice or misses one differs from the reference's.
func witness(i int) uint64 { return mix64(uint64(i)) }

func mergeWitness(a, b uint64) uint64 { return a + b }

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// floatLanes cuts values, finite floats, into the int64 lanes of their exact
// sum. With 2^low the lowest set bit among them, units[i] is values[i] in
// units of 2^low, exactly, and lanes[l][i] is its l-th signed 32-bit digit.
func floatLanes(values []float64) (lanes [][]int64, units []*big.Int) {
	low, high := math.MaxInt, math.MinInt
	for _, v := range values {
		if v != 0 {
			frac, e := math.Frexp(v)
			m := uint64(math.Abs(frac) * (1 << 53))
			low, high = min(low, e-53+bits.TrailingZeros64(m)), max(high, e-1)
		}
	}
	if low > high {
		low, high = 0, 0
	}
	lanes = make([][]int64, (high-low)/32+1)
	for l := range lanes {
		lanes[l] = make([]int64, len(values))
	}
	units = make([]*big.Int, len(values))
	for i, v := range values {
		units[i], _ = new(big.Float).SetMantExp(big.NewFloat(v), -low).Int(nil)
		mag := new(big.Int).Abs(units[i])
		for l := range lanes {
			d := int64(new(big.Int).Rsh(mag, uint(32*l)).Uint64() & (1<<32 - 1))
			if units[i].Sign() < 0 {
				d = -d
			}
			lanes[l][i] = d
		}
	}
	return lanes, units
}

// laneSum is Σ s[l]·2^(32l): the exact sum, in floatLanes' units, that lane
// sums s stand for.
func laneSum(s []int64) *big.Int {
	sum := new(big.Int)
	for l := len(s) - 1; l >= 0; l-- {
		sum.Add(sum.Lsh(sum, 32), big.NewInt(s[l]))
	}
	return sum
}

// TestAggBelowBatchMatchesScalar cross-checks AggBelowBatch against the
// reference fold aggRef with the witness sum, so a run prefix taken twice or
// left out fails the test. The count output is cross-checked too.
func TestAggBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 4000, 4596} {
			keys := make([]int64, n)
			values := make([]uint64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
				values[i] = witness(i)
			}
			at, err := BuildAnnotated(keys, values, mergeWitness, opt)
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
			result := make([]uint64, m)
			okv := make([]bool, m)
			cnt := make([]int32, m)
			at.AggBelowBatch(lo, hi, thr, result, okv, cnt)
			ref := newAggRef(at.t.effLen, keys, values, mergeWitness)
			for q := 0; q < m; q++ {
				want, wantOK, wantCnt := ref.query(int(lo[q]), int(hi[q]), thr[q])
				if okv[q] != wantOK || (wantOK && result[q] != want) {
					t.Fatalf("opt=%+v n=%d query %d: AggBelowBatch(%d,%d,%d)=(%+v,%v), reference=(%+v,%v)",
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

// TestAggBelowBatchFloatBitIdentical pins what the float sums core builds
// rely on: a float column cut into lanes (floatLanes), one sum tree per lane
// over shared keys (BuildSum, Lane), answers every query with the exact sum
// of the qualifying values, summed in math/big — across magnitudes chosen
// so that any float fold would round, at batch lengths on both sides of
// every sub-batch boundary (aggSubBatch queries per descent), where a query
// answered from the wrong sub-batch's scratch or left out of both would show.
func TestAggBelowBatchFloatBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := 3000
	keys := make([]int64, n)
	values := make([]float64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(n + 1))
		values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	lanes, units := floatLanes(values)
	trees := make([]*AnnotatedTree[int64], len(lanes))
	var err error
	if trees[0], err = BuildSum(keys, lanes[0], Options{}, Full); err != nil {
		t.Fatal(err)
	}
	for l := 1; l < len(lanes); l++ {
		if trees[l], err = trees[0].Lane(lanes[l], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []int{aggSubBatch - 1, aggSubBatch, aggSubBatch + 1, 3*aggSubBatch + 1, 4 * n} {
		lo := make([]int32, m)
		hi := make([]int32, m)
		thr := make([]int64, m)
		for q := 0; q < m; q++ {
			lo[q] = int32(rng.Intn(n))
			hi[q] = lo[q] + int32(rng.Intn(n/2+1))
			thr[q] = int64(rng.Intn(n + 2))
		}
		sums := make([][]int64, len(trees))
		okv := make([]bool, m)
		cnt := make([]int32, m)
		for l, at := range trees {
			sums[l] = make([]int64, m)
			at.AggBelowBatch(lo, hi, thr, sums[l], okv, cnt)
		}
		s := make([]int64, len(trees))
		for q := 0; q < m; q++ {
			want, num := new(big.Int), 0
			for j := lo[q]; j < min(hi[q], int32(n)); j++ {
				if keys[j] < thr[q] {
					want.Add(want, units[j])
					num++
				}
			}
			if okv[q] != (num > 0) || int(cnt[q]) != num {
				t.Fatalf("batch of %d, query %d: (ok %v, cnt %d), reference %d values", m, q, okv[q], cnt[q], num)
			}
			for l := range s {
				s[l] = sums[l][q]
			}
			if got := laneSum(s); num > 0 && got.Cmp(want) != 0 {
				t.Fatalf("batch of %d, query %d: lane sums give %v, the exact sum is %v", m, q, got, want)
			}
		}
	}
}

// TestAggBatchFrameShapes pins kernel == reference == brute force for the
// aggregate descents on the frame shapes a window probe produces — sliding,
// constant, empty and whole-partition frames over previous-occurrence keys
// with the DISTINCT threshold lo+1 — across the step's parameter grid. The
// aggregate state pairs an integer sum, which brute force can reproduce, with
// the witness sum, which kernel and reference (aggRef) only agree on when
// they fold the same run prefixes.
func TestAggBatchFrameShapes(t *testing.T) {
	type state struct {
		sum  int64
		fold uint64
	}
	merge := func(a, b state) state { return state{a.sum + b.sum, a.fold + b.fold} }
	rng := rand.New(rand.NewSource(61))
	const n = 1531 // ragged last run at every fanout of the grid
	vals := make([]int64, n)
	states := make([]state, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(40))
		states[i] = state{vals[i], witness(i)}
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
