package sortutil

import (
	"cmp"
	"math/rand"
	"slices"
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
			ParallelMerge(got, x, y, cmp.Compare[int64])
			want := make([]int64, nx+ny)
			MergeInto(want, x, y, cmp.Compare[int64])
			if !slices.Equal(got, want) {
				t.Fatalf("ParallelMerge(%d,%d) differs from serial merge", nx, ny)
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
		SortFunc(a, cmp.Compare[int64])
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
	SortFunc(a, func(x, y pair) int {
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
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
	SortFunc(a, cmp.Compare[int64])
	if !slices.Equal(a, want) {
		t.Fatal("single-worker SortFunc failed")
	}
}

func TestSortFuncProperty(t *testing.T) {
	prop := func(raw []int64) bool {
		a := slices.Clone(raw)
		want := slices.Clone(raw)
		slices.Sort(want)
		SortFunc(a, cmp.Compare[int64])
		return slices.Equal(a, want)
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
		SortFunc(a, cmp.Compare[int64])
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
	ParallelMerge(got, x, y, cmp.Compare[int64])
	want := make([]int64, nx+ny)
	MergeInto(want, x, y, cmp.Compare[int64])
	if !slices.Equal(got, want) {
		t.Fatal("forced-parallel merge differs from serial merge")
	}
}
