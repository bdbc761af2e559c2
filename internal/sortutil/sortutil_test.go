package sortutil

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"holistic/internal/parallel"
)

func TestLowerUpperBound(t *testing.T) {
	a := []int64{1, 3, 3, 3, 7, 9}
	cases := []struct {
		x      int64
		lb, ub int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {4, 4, 4},
		{7, 4, 5}, {8, 5, 5}, {9, 5, 6}, {10, 6, 6},
	}
	for _, c := range cases {
		if got := LowerBound(a, c.x); got != c.lb {
			t.Errorf("LowerBound(%d) = %d, want %d", c.x, got, c.lb)
		}
		if got := UpperBound(a, c.x); got != c.ub {
			t.Errorf("UpperBound(%d) = %d, want %d", c.x, got, c.ub)
		}
	}
	if LowerBound(nil, 5) != 0 || UpperBound(nil, 5) != 0 {
		t.Error("bounds on empty slice must be 0")
	}
}

func TestMergeSplitStable(t *testing.T) {
	type elem struct{ key, src int }
	cmpE := func(a, b elem) int { return cmp.Compare(a.key, b.key) }
	x := []elem{{1, 0}, {3, 0}, {3, 0}, {5, 0}}
	y := []elem{{1, 1}, {3, 1}, {4, 1}}
	// The full stable merge.
	full := make([]elem, len(x)+len(y))
	MergeInto(full, x, y, cmpE)
	wantOrder := []elem{{1, 0}, {1, 1}, {3, 0}, {3, 0}, {3, 1}, {4, 1}, {5, 0}}
	if !slices.Equal(full, wantOrder) {
		t.Fatalf("MergeInto not stable: %v", full)
	}
	// Every split point must be consistent with the full merge prefix.
	for split := 0; split <= len(full); split++ {
		i, j := MergeSplit(x, y, split, cmpE)
		if i+j != split {
			t.Fatalf("split %d: i+j = %d", split, i+j)
		}
		nx := 0
		for _, e := range full[:split] {
			if e.src == 0 {
				nx++
			}
		}
		if i != nx {
			t.Fatalf("split %d: took %d from x, stable merge takes %d", split, i, nx)
		}
	}
}

// parallelMerge merges x and y into dst as one of SortFunc's merge rounds
// does, cut into a piece per worker.
func parallelMerge(dst, x, y []int64) error {
	ctx := context.Background()
	return mergePieces(ctx, splitMerge(nil, dst, x, y, parallel.ContextWorkers(ctx), cmp.Compare[int64]), cmp.Compare[int64])
}

func TestParallelMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nx := range []int{0, 1, 100, 1 << 16} {
		for _, ny := range []int{0, 1, 77, 1 << 16} {
			x := make([]int64, nx)
			y := make([]int64, ny)
			for i := range x {
				x[i] = rng.Int63n(1000)
			}
			for i := range y {
				y[i] = rng.Int63n(1000)
			}
			slices.Sort(x)
			slices.Sort(y)
			got := make([]int64, nx+ny)
			if err := parallelMerge(got, x, y); err != nil {
				t.Fatal(err)
			}
			want := make([]int64, nx+ny)
			MergeInto(want, x, y, cmp.Compare[int64])
			if !slices.Equal(got, want) {
				t.Fatalf("parallel merge (%d,%d) differs from serial merge", nx, ny)
			}
		}
	}
}

func TestSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, 1 << 14, 1<<16 + 3} {
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(1 << 20)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		if err := SortFunc(context.Background(), a, cmp.Compare[int64]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, want) {
			t.Fatalf("SortFunc failed for n=%d", n)
		}
	}
}

func TestSortFuncStableWithTiebreak(t *testing.T) {
	// The window operator always sorts (key, position) pairs; with the
	// position tiebreak the sort must behave like a stable sort on key.
	type pair struct {
		key int64
		pos int
	}
	rng := rand.New(rand.NewSource(4))
	n := 1 << 16
	a := make([]pair, n)
	for i := range a {
		a[i] = pair{rng.Int63n(64), i} // heavy duplication
	}
	if err := SortFunc(context.Background(), a, func(x, y pair) int {
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if a[i-1].key > a[i].key || (a[i-1].key == a[i].key && a[i-1].pos >= a[i].pos) {
			t.Fatalf("order violated at %d: %v %v", i, a[i-1], a[i])
		}
	}
}

func TestSortFuncSingleWorker(t *testing.T) {
	prev := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prev)
	a := make([]int64, 1<<15)
	rng := rand.New(rand.NewSource(5))
	for i := range a {
		a[i] = rng.Int63()
	}
	want := slices.Clone(a)
	slices.Sort(want)
	if err := SortFunc(context.Background(), a, cmp.Compare[int64]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, want) {
		t.Fatal("single-worker SortFunc failed")
	}
}

func TestSortFuncProperty(t *testing.T) {
	prop := func(raw []int64) bool {
		a := slices.Clone(raw)
		want := slices.Clone(raw)
		slices.Sort(want)
		return SortFunc(context.Background(), a, cmp.Compare[int64]) == nil && slices.Equal(a, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFuncForcedParallel(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1 << 14, 1<<17 + 13, 1 << 18} {
		a := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(1000) // heavy duplicates exercise tie handling
		}
		want := slices.Clone(a)
		slices.Sort(want)
		if err := SortFunc(context.Background(), a, cmp.Compare[int64]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, want) {
			t.Fatalf("forced-parallel SortFunc failed for n=%d", n)
		}
	}
}

func TestParallelMergeForcedWorkers(t *testing.T) {
	prev := parallel.SetMaxWorkers(8)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(78))
	nx, ny := 1<<17, 1<<17+999
	x := make([]int64, nx)
	y := make([]int64, ny)
	for i := range x {
		x[i] = rng.Int63n(500)
	}
	for i := range y {
		y[i] = rng.Int63n(500)
	}
	slices.Sort(x)
	slices.Sort(y)
	got := make([]int64, nx+ny)
	if err := parallelMerge(got, x, y); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, nx+ny)
	MergeInto(want, x, y, cmp.Compare[int64])
	if !slices.Equal(got, want) {
		t.Fatal("forced-parallel merge differs from serial merge")
	}
}

// TestSortFuncWorkerCap sorts under a worker cap of 1 on a process allowed
// four workers and requires that no two comparator calls ever overlap: the
// chunk sorts and every merge round run on one goroutine. Under a cap of 4
// the same sort must still be right.
func TestSortFuncWorkerCap(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(9))
	base := make([]int64, 1<<15)
	for i := range base {
		base[i] = rng.Int63n(1 << 30)
	}
	want := slices.Clone(base)
	slices.Sort(want)
	for _, workers := range []int{1, 4} {
		var inFlight, most atomic.Int64
		a := slices.Clone(base)
		err := SortFunc(parallel.ContextWithLimit(context.Background(), workers), a, func(x, y int64) int {
			n := inFlight.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return cmp.Compare(x, y)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, want) {
			t.Fatalf("cap %d: SortFunc's order differs from slices.Sort's", workers)
		}
		if workers == 1 && most.Load() != 1 {
			t.Fatalf("cap 1: %d comparator calls ran at once, want 1", most.Load())
		}
		if workers == 4 && most.Load() < 2 {
			t.Fatalf("cap 4: the comparator calls never overlapped, so the count cannot tell a cap from none")
		}
	}
}

// TestSortFuncCancelled: an ended context stops the sort with its error, on
// one worker too.
func TestSortFuncCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := make([]int64, 1<<15)
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := SortFunc(parallel.ContextWithLimit(ctx, workers), a, func(x, y int64) int { calls.Add(1); return cmp.Compare(x, y) })
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Fatalf("cap %d: SortFunc on a cancelled context = %v after %d comparisons, want context.Canceled before any", workers, err, calls.Load())
		}
	}
}
