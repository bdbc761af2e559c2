package mst

import (
	"math"
	"math/rand"
	"testing"
)

// batchVariants are the tree configurations the batch kernels must agree
// with brute force on: the defaults, a deep skinny tree and no cascading.
func batchVariants() []Options {
	return []Options{
		{},
		{Fanout: 2, SampleEvery: 1},
		{Fanout: 3, SampleEvery: 2, NoCascading: true},
	}
}

// TestCountBelowBatchMatchesScalar cross-checks CountBelowBatch against
// per-query brute force over randomized data, including sliding frames (the
// galloping fast path), random frames (bidirectional galloping), clamped
// and trivial queries, and out-of-domain thresholds, under both leaf seam
// settings.
func TestCountBelowBatchMatchesScalar(t *testing.T) {
	leafSeam(t, testCountBelowBatchMatchesScalar)
}

func testCountBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 4000} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
			}
			tree, err := Build(keys, opt)
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
				default: // out-of-range clamping and trivial cases
					lo[q] = int32(rng.Intn(2*n+3) - n - 1)
					hi[q] = int32(rng.Intn(2*n+3) - n - 1)
					thr[q] = []int64{-1, 0, int64(n) + 7, math.MaxInt64, 3}[rng.Intn(5)]
				}
			}
			out := make([]int32, m)
			tree.CountBelowBatch(lo, hi, thr, out)
			for q := 0; q < m; q++ {
				want := bruteCountBelow(keys, int(lo[q]), int(hi[q]), thr[q])
				if int(out[q]) != want {
					t.Fatalf("opt=%+v n=%d query %d: CountBelowBatch(%d,%d,%d)=%d, brute force=%d",
						opt, n, q, lo[q], hi[q], thr[q], out[q], want)
				}
			}
		}
	}
}

// TestCountBelowBatchFrameShapes pins kernel == naive on the frame
// shapes a window probe produces — sliding (100 rows and one row either side
// of LeafRows), constant, empty and whole-partition frames over
// previous-occurrence keys with the COUNT DISTINCT threshold lo+1 — for
// striped and NoCascading trees, under both leaf seam settings; the kernel
// must report exactly the frames of at most the cutoff's rows as answered at
// the leaves.
func TestCountBelowBatchFrameShapes(t *testing.T) {
	leafSeam(t, testCountBelowBatchFrameShapes)
}

func testCountBelowBatchFrameShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 3000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(40))
	}
	keys := prevIdcsRef(vals)
	shapes := []struct {
		name  string
		frame func(row int) (lo, hi int)
	}{
		{"sliding", func(row int) (int, int) { return max(row-99, 0), row + 1 }},
		{"sliding-below-cutoff", func(row int) (int, int) { return row, min(row+LeafRows-1, n) }},
		{"sliding-at-cutoff", func(row int) (int, int) { return row, min(row+LeafRows, n) }},
		{"sliding-above-cutoff", func(row int) (int, int) { return row, min(row+LeafRows+1, n) }},
		{"sliding-centered", func(row int) (int, int) { return max(row-700, 0), min(row+700, n) }},
		{"constant", func(int) (int, int) { return 517, 2203 }},
		{"empty", func(row int) (int, int) { return row, row - row%2 }},
		{"whole-partition", func(int) (int, int) { return 0, n }},
	}
	variants := append(batchVariants(),
		Options{Fanout: 8, SampleEvery: 64},
		Options{Fanout: 256, SampleEvery: 7})
	lo, hi := make([]int32, n), make([]int32, n)
	thr := make([]int64, n)
	out := make([]int32, n)
	for _, opt := range variants {
		tree, err := Build(keys, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			wantLeaves := 0
			for row := 0; row < n; row++ {
				a, b := sh.frame(row)
				lo[row], hi[row], thr[row] = int32(a), int32(b), int64(a)+1
				if b > a && b-a <= leafRows {
					wantLeaves++
				}
			}
			if leaves, _ := tree.CountBelowBatch(lo, hi, thr, out); leaves != wantLeaves {
				t.Fatalf("opt=%+v %s: %d queries answered at the leaves, want %d", opt, sh.name, leaves, wantLeaves)
			}
			for row := 0; row < n; row++ {
				if naive := bruteCountBelow(keys, int(lo[row]), int(hi[row]), thr[row]); int(out[row]) != naive {
					t.Fatalf("opt=%+v %s row %d [%d,%d)<%d: kernel %d, naive %d",
						opt, sh.name, row, lo[row], hi[row], thr[row], out[row], naive)
				}
			}
		}
	}
}

// stepGrid is the parameter space the step's frame-shape tests sweep:
// fanouts up to the limit × sample distances below, at and above them × the
// tree states a step can meet.
func stepGrid() []Options {
	var grid []Options
	for _, f := range []int{2, 8, 32, 256} {
		for _, k := range []int{1, 7, 32, 64} {
			grid = append(grid,
				Options{Fanout: f, SampleEvery: k},
				Options{Fanout: f, SampleEvery: k, NoCascading: true})
		}
	}
	return grid
}

// TestSelectBatchFrameShapes pins kernel == brute force for the
// select descent on the query shapes a window probe produces: one sliding
// value range, the two ranges of EXCLUDE CURRENT ROW and the three of EXCLUDE
// TIES (some of them empty), over a permutation and a duplicate-heavy
// payload with a ragged last run. The k-th entry asked for is the first, the
// median, the last and one past the last; range bounds fall inside one
// k-block and on exact multiples of k (on the permutation the top-level rank
// of a bound is the bound itself).
func TestSelectBatchFrameShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 1531
	perm := make([]int64, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int64(p)
	}
	payloads := [][]int64{perm, randKeys(rng, n, n/8)}
	type query struct {
		ranges [][2]int64
		kth    int // index into {0, median, total-1, total}
	}
	var queries []query
	for row := 0; row < n; row += 3 {
		v := int64(row)
		w := []int64{3, 32, 64, 500, n / 2}[row/3%5]
		a, b := max(v-w, 0), min(v+w, n)
		a64, b64 := a/64*64, (b+63)/64*64 // multiples of every k and f in the grid but 7
		queries = append(queries,
			query{[][2]int64{{a, v + 1}}, row % 4},
			query{[][2]int64{{a64, b64}}, (row + 1) % 4},
			query{[][2]int64{{a, v}, {v + 1, b}}, (row + 2) % 4},
			query{[][2]int64{{a, a}, {v, v + 1}}, (row + 3) % 4},
			query{[][2]int64{{a, max(v-1, a)}, {v, v + 1}, {min(v+2, b), b}}, row % 4},
			query{[][2]int64{{a, v}, {v, v}, {v + 1, b}}, (row + 1) % 4})
	}
	m := len(queries)
	off := make([]int32, 1, m+1)
	var vlo, vhi []int64
	for _, qu := range queries {
		for _, r := range qu.ranges {
			vlo, vhi = append(vlo, r[0]), append(vhi, r[1])
		}
		off = append(off, int32(len(vlo)))
	}
	kth := make([]int32, m)
	want := make([]int32, m)
	out := make([]int32, m)
	for _, keys := range payloads {
		for q, qu := range queries {
			total := 0
			for _, v := range keys {
				for _, r := range qu.ranges {
					if v >= r[0] && v < r[1] {
						total++
					}
				}
			}
			kth[q] = int32([]int{0, total / 2, total - 1, total}[qu.kth])
			want[q] = -1
			if pos, ok := bruteSelectRanges(keys, qu.ranges, int(kth[q])); ok && kth[q] >= 0 {
				want[q] = int32(pos)
			}
		}
		for _, opt := range stepGrid() {
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			tree.SelectKthRangesBatch(off, vlo, vhi, kth, out)
			for q, qu := range queries {
				if out[q] != want[q] {
					t.Fatalf("opt=%+v ranges=%v k=%d: kernel %d, brute force %d",
						opt, qu.ranges, kth[q], out[q], want[q])
				}
			}
		}
	}
}

// TestSelectKthRangesBatchMatchesScalar cross-checks SelectKthRangesBatch
// against per-query brute force over randomized multi-range queries,
// including empty ranges, unsatisfiable ranks and negative ranks.
func TestSelectKthRangesBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 9, 65, 300, 2500} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
			}
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := n + 24
			off := make([]int32, 1, m+1)
			var vlo, vhi []int64
			k := make([]int32, m)
			for q := 0; q < m; q++ {
				nr := rng.Intn(4) // 0..3 ranges
				if q%5 == 4 && q > 0 {
					// Same ranges as the previous query, shifted rank.
					p0, p1 := int(off[q-1]), int(off[q])
					vlo = append(vlo, vlo[p0:p1]...)
					vhi = append(vhi, vhi[p0:p1]...)
				} else {
					start := int64(0)
					for r := 0; r < nr; r++ {
						a := start + int64(rng.Intn(n/2+2))
						b := a + int64(rng.Intn(n/2+2)) // may be empty (a == b)
						vlo = append(vlo, a)
						vhi = append(vhi, b)
						start = b
					}
				}
				off = append(off, int32(len(vlo)))
				k[q] = int32(rng.Intn(n+3) - 1) // includes -1 and > total
			}
			out := make([]int32, m)
			tree.SelectKthRangesBatch(off, vlo, vhi, k, out)
			var scratch [maxSelectRanges][2]int64
			for q := 0; q < m; q++ {
				nr := 0
				for j := off[q]; j < off[q+1]; j++ {
					scratch[nr] = [2]int64{vlo[j], vhi[j]}
					nr++
				}
				pos, ok := bruteSelectRanges(keys, scratch[:nr], int(k[q]))
				want := int32(-1)
				if ok && k[q] >= 0 {
					want = int32(pos)
				}
				if out[q] != want {
					t.Fatalf("opt=%+v n=%d query %d (ranges=%v k=%d): batch=%d brute force=%d",
						opt, n, q, scratch[:nr], k[q], out[q], want)
				}
			}
		}
	}
}

// TestLowerBoundFromP exhausts guess positions against the plain binary
// search on small sorted arrays with duplicates.
func TestLowerBoundFromP(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		a := make([]int32, n)
		v := int32(0)
		for i := range a {
			v += int32(rng.Intn(3))
			a[i] = v
		}
		for x := int32(-1); x <= v+1; x++ {
			want := lowerBoundP(a, x)
			for g := -2; g <= n+2; g++ {
				if got := lowerBoundFromP(a, x, g); got != want {
					t.Fatalf("lowerBoundFromP(%v, %d, guess=%d) = %d, want %d", a, x, g, got, want)
				}
			}
		}
	}
}
