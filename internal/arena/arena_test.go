package arena

import (
	"testing"
)

func TestArenaAllocZeroedAndDisjoint(t *testing.T) {
	a := New[int64](8) // a tiny slab: later allocations are made past it
	var got [][]int64
	for i, n := range []int{3, 3, 3, 10, 1, 0, 5} {
		s := a.Alloc(n)
		if len(s) != n {
			t.Fatalf("alloc %d: len %d", n, len(s))
		}
		if cap(s) != n && n > 0 {
			t.Fatalf("alloc %d: cap %d, want exactly n (no aliasing into later allocations)", n, cap(s))
		}
		for j, v := range s {
			if v != 0 {
				t.Fatalf("alloc #%d: s[%d] = %d, want zeroed", i, j, v)
			}
		}
		for j := range s {
			s[j] = int64(100*i + j)
		}
		got = append(got, s)
	}
	// Disjointness: earlier allocations keep their values.
	for i, s := range got {
		for j, v := range s {
			if v != int64(100*i+j) {
				t.Fatalf("allocation %d overwritten at %d: got %d", i, j, v)
			}
		}
	}
}

func TestArenaZeroValue(t *testing.T) {
	var a Arena[byte]
	s := a.Alloc(10)
	if len(s) != 10 {
		t.Fatalf("zero-value arena alloc failed")
	}
}

func TestArenaSingleChunkWhenSizedExactly(t *testing.T) {
	a := New[int64](100)
	for i := 0; i < 10; i++ {
		if s := a.Alloc(10); &s[0] != &a.slab[10*i] {
			t.Fatalf("allocation %d is not carved from the slab", i)
		}
	}
	before := arenaBytesTotal.Value()
	if s := a.Alloc(1); len(s) != 1 {
		t.Fatalf("alloc past the slab: len %d", len(s))
	}
	if got := arenaBytesTotal.Value() - before; got < 8 {
		t.Fatalf("alloc past the slab counted %v bytes, want at least 8", got)
	}
}

func TestPoolGetPut(t *testing.T) {
	p := NewPool[int64]("test")
	s := p.Get(100)
	if len(s) != 100 {
		t.Fatalf("Get(100) len = %d", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("Get(100) cap = %d, want 128 (size class)", cap(s))
	}
	for i := range s {
		s[i] = int64(i)
	}
	p.Put(s)
	st := p.stat()
	if st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesInFlight != 0 {
		t.Fatalf("bytes in flight after put = %d", st.BytesInFlight)
	}
	z := p.GetZeroed(100)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed dirty at %d: %d", i, v)
		}
	}
}

func TestPoolPutRejectsGrownBuffers(t *testing.T) {
	p := NewPool[int32]("test-grown")
	s := p.Get(4)
	s = append(s, 1, 2, 3, 4, 5)
	p.Put(s)
	if cap(s) == 8 {
		t.Skip("append stayed within a class boundary on this runtime")
	}
	st := p.stat()
	if st.Puts != 0 {
		t.Fatalf("grown buffer was accepted back: %+v", st)
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1 << 20: 20}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}
