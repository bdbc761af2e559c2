package mst

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestSoALayoutAligned checks the cache-line contract of the arena build:
// every level slab, every sample slab and — via the padded stride — every
// per-run sample row starts on a 64-byte boundary.
func TestSoALayoutAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	keys := make([]int64, 10000)
	for i := range keys {
		keys[i] = int64(rng.Intn(len(keys)))
	}
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.mono
	for l := 1; l < len(tr.levels); l++ {
		if addr := uintptr(unsafe.Pointer(&tr.levels[l][0])); addr%cacheLineBytes != 0 {
			t.Fatalf("level %d slab at %#x not cache-line aligned", l, addr)
		}
		if tr.samples[l] == nil {
			continue
		}
		if addr := uintptr(unsafe.Pointer(&tr.samples[l][0])); addr%cacheLineBytes != 0 {
			t.Fatalf("sample slab %d at %#x not cache-line aligned", l, addr)
		}
		if tr.stride[l]%(cacheLineBytes/4) != 0 {
			t.Fatalf("level %d stride %d not a whole number of cache lines", l, tr.stride[l])
		}
	}
}
