package arena

import (
	"testing"
	"unsafe"
)

// FuzzArenaAlloc drives an Arena through interleaved Alloc and AllocAligned
// calls decided by the fuzz input, over a slab the input also sizes, so
// allocations land both in the slab and past it. It checks that (a) every
// allocation comes back zeroed with length and capacity exactly as asked,
// (b) an aligned allocation starts on its boundary, and (c) no allocation
// overlaps a live one: every slice keeps the contents written into it.
func FuzzArenaAlloc(f *testing.F) {
	f.Add(uint8(64), []byte{1, 5, 0, 1, 9, 2, 1, 3, 3})
	f.Add(uint8(0), []byte{0, 1, 200, 1, 7, 0, 2})
	f.Add(uint8(16), []byte{2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, slab uint8, ops []byte) {
		a := New[int32](int(slab))
		var live [][]int32
		for i := 0; i+1 < len(ops); i += 2 {
			n := int(ops[i+1] % 40)
			var s []int32
			if ops[i]%2 == 0 {
				s = a.Alloc(n)
			} else {
				align := 8 << (ops[i] % 4) // 8 … 64 bytes
				s = a.AllocAligned(n, align)
				if n > 0 && uintptr(unsafe.Pointer(&s[0]))%uintptr(align) != 0 {
					t.Fatalf("AllocAligned(%d, %d) starts at %p", n, align, &s[0])
				}
			}
			if len(s) != n || cap(s) != n {
				t.Fatalf("allocation of %d: len %d cap %d", n, len(s), cap(s))
			}
			for j, v := range s {
				if v != 0 {
					t.Fatalf("allocation of %d not zeroed at %d: %d", n, j, v)
				}
			}
			for j := range s {
				s[j] = int32(len(live)*1000 + j)
			}
			live = append(live, s)
		}
		for seq, s := range live {
			for j, v := range s {
				if v != int32(seq*1000+j) {
					t.Fatalf("allocation %d overwritten at %d: got %d want %d", seq, j, v, seq*1000+j)
				}
			}
		}
	})
}
