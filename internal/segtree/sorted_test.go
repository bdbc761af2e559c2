package segtree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSortedTreeKth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 64, 65, 513} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n)) - int64(n)/2
		}
		tr := NewSorted(vals)
		for trial := 0; trial < 100; trial++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			k := rng.Intn(hi - lo)
			want := slices.Clone(vals[lo:hi])
			slices.Sort(want)
			got, ok := tr.Kth(lo, hi, k)
			if !ok || got != want[k] {
				t.Fatalf("n=%d Kth(%d,%d,%d) = (%d,%v), want %d", n, lo, hi, k, got, ok, want[k])
			}
		}
		if _, ok := tr.Kth(0, n, n); ok {
			t.Fatal("out-of-range k must return !ok")
		}
		if _, ok := tr.Kth(0, 0, 0); ok {
			t.Fatal("empty range must return !ok")
		}
	}
}

func TestSortedTreeCountBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(50)
	}
	tr := NewSorted(vals)
	for trial := 0; trial < 300; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		th := rng.Int63n(52)
		want := 0
		for i := lo; i < hi; i++ {
			if vals[i] < th {
				want++
			}
		}
		if got := tr.CountBelow(lo, hi, th); got != want {
			t.Fatalf("CountBelow(%d,%d,%d) = %d, want %d", lo, hi, th, got, want)
		}
	}
}

func TestSortedTreeProperty(t *testing.T) {
	prop := func(raw []int16, loSeed, hiSeed, kSeed uint16) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		vals := make([]int64, n)
		for i, v := range raw {
			vals[i] = int64(v)
		}
		tr := NewSorted(vals)
		lo := int(loSeed) % n
		hi := lo + 1 + int(hiSeed)%(n-lo)
		k := int(kSeed) % (hi - lo)
		want := slices.Clone(vals[lo:hi])
		slices.Sort(want)
		got, ok := tr.Kth(lo, hi, k)
		return ok && got == want[k]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
