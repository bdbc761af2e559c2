// Package arena provides the allocation substrate of the query path: a
// pre-sized, type-parameterized slab allocator (Arena) for structures whose
// lifetime is a single build, and size-classed, sync.Pool-backed scratch
// buffers (Pool) for temporaries that are recycled across requests.
//
// The merge sort tree algorithms are memory-bandwidth bound (§5.1 argues
// for the 32-bit representation purely on bandwidth grounds), so steady-state
// query serving must not pay for allocation or garbage collection: tree
// levels and cascading-pointer arrays are carved out of one slab per build,
// and every per-query temporary — hash arrays, sorted index buffers,
// permutation arrays, merge scratch — is borrowed from a pool and returned
// when the query is done. Arenas count themselves and their bytes in
// obs.Default (windowd_arena_arenas_total, windowd_arena_allocated_bytes_total);
// pools keep per-pool counters that Snapshot reads, and windowd publishes
// those at scrape time as the windowd_pool_* families.
//
// Arenas are single-goroutine: one build owns one arena. Pools are safe for
// concurrent use from any number of requests.
package arena

import (
	"unsafe"

	"holistic/internal/obs"
)

// Arena counters, process-wide in obs.Default and shared by every element
// type: arenas created, and their slab bytes plus the bytes of allocations
// past a slab.
var (
	arenasTotal = obs.Default.NewCounter("windowd_arena_arenas_total",
		"Arenas created by the allocation-aware query path.").With()
	arenaBytesTotal = obs.Default.NewCounter("windowd_arena_allocated_bytes_total",
		"Bytes reserved by arenas.").With()
)

// Arena is a slab allocator for elements of type T: New sizes one slab, and
// Alloc hands out zeroed, disjoint slices carved from it. Nothing is freed
// individually; the slab lives as long as any slice carved from it. The
// caller sizes the slab to a total it knows up front (the tree build, to a
// tree's levels); an allocation past its end gets a fresh make instead.
//
// The zero value is an arena with an empty slab. An Arena must not be
// shared between goroutines without external synchronization.
type Arena[T any] struct {
	slab []T
	used int // elements of slab handed out
}

// New returns an arena over one zeroed slab of n elements.
func New[T any](n int) *Arena[T] {
	arenasTotal.Inc()
	arenaBytesTotal.Add(int64(n) * elemBytes[T]())
	return &Arena[T]{slab: make([]T, n)}
}

// elemBytes is the size of T in bytes.
func elemBytes[T any]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// Alloc returns a zeroed slice of n elements with capacity exactly n, carved
// from the slab, or freshly made when the slab has fewer than n elements
// left. n == 0 returns nil without consuming slab space; n < 0 panics in the
// runtime's make.
func (a *Arena[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.slab)-a.used {
		arenaBytesTotal.Add(int64(n) * elemBytes[T]())
		return make([]T, n)
	}
	s := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// AllocAligned returns a zeroed slice of n elements whose backing array
// starts at a byte address that is a multiple of alignBytes. It over-
// allocates by at most alignBytes-1 bytes and skips to the first aligned
// element, so the waste is bounded per call; alignBytes must be a positive
// multiple of T's size or the call degrades to a plain Alloc. The merge
// sort tree's struct-of-arrays level stripes use this to pin level and
// sample slabs to cache-line boundaries.
func (a *Arena[T]) AllocAligned(n, alignBytes int) []T {
	if n == 0 {
		return nil
	}
	eb := int(elemBytes[T]())
	if alignBytes <= eb || alignBytes%eb != 0 {
		return a.Alloc(n)
	}
	alignElems := alignBytes / eb
	s := a.Alloc(n + alignElems - 1)
	ofs := 0
	if rem := int(uintptr(unsafe.Pointer(&s[0])) % uintptr(alignBytes)); rem != 0 {
		ofs = (alignBytes - rem) / eb
	}
	return s[ofs : ofs+n : ofs+n]
}
