package sortutil

import (
	"context"

	"holistic/internal/arena"
	"holistic/internal/parallel"
)

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits

	// smallSortPairs is the input size up to which SortPairs runs a typed
	// insertion sort instead of radix passes: a pass costs a 256-bucket
	// prefix sum whatever n is, which a 100-row partition never earns back
	// (BenchmarkSortPairs measures the crossing).
	smallSortPairs = 96

	// cacheSortPairs is the input size up to which all scatter passes run
	// least-significant digit first over the whole input. Above it the two
	// scatter targets no longer fit the L2 cache and every pass pays a miss
	// per element, so the input is first split on its most significant
	// varying digit and the (cache-sized, independent) buckets are sorted
	// on their own.
	cacheSortPairs = 1 << 15
)

// SortPairs stably sorts the pairs (keys[i], idx[i]) ascending by key, in
// place: pairs with equal keys keep their input order, so a caller that
// starts from idx in tiebreak order needs no tiebreak, and a multi-word key
// is sorted by calling SortPairs once per word, least significant first
// (Scratch.SortPairs, which borrows the scatter targets once for all words).
//
// The sort is a closure-free radix sort over 8-bit digits. One pre-pass
// fills the histograms of all eight digits; a digit on which every key
// agrees is skipped, so the number of scatter passes is the number of bytes
// in which the keys actually differ. An input above the cache size is split
// once on its most significant varying digit, and the buckets are sorted on
// the workers of ctx (parallel.ForEachContext: its worker cap, its span).
// ctx (which may be nil) is checked between the parts and the buckets of a
// large input; when it has ended the sort returns its error and leaves keys
// and idx in an unspecified order.
func SortPairs(ctx context.Context, keys []uint64, idx []int32) error {
	s := NewScratch(len(keys))
	defer s.Release()
	return s.SortPairs(ctx, keys, idx)
}

// Scratch is the pair sort's scatter space: two targets as long as the
// longest input it sorts.
type Scratch struct {
	keys []uint64
	idx  []int32
}

// NewScratch returns scatter space for sorting up to n pairs; Release gives
// it back. Inputs the insertion kernel sorts need none. Cache-sized targets
// are borrowed from the arena pools: the 2,000 partitions of one statement
// reuse them instead of leaving 24 KB of garbage each. Larger ones are
// allocated and die with the sort: a pooled buffer stays reachable between
// statements (once per P), the collector sizes its heap goal from what is
// reachable, and windowbench read pooled 1M-row targets as +6 % peak RSS on
// cold_1m, allocated ones as −3 %.
func NewScratch(n int) *Scratch {
	switch {
	case n <= smallSortPairs:
		return &Scratch{}
	case n <= cacheSortPairs:
		return &Scratch{keys: arena.Uint64s.Get(n), idx: arena.Int32s.Get(n)}
	}
	return &Scratch{keys: make([]uint64, n), idx: make([]int32, n)}
}

// Release returns pooled targets to their pools; the scratch is empty after.
func (s *Scratch) Release() {
	if len(s.keys) > 0 && len(s.keys) <= cacheSortPairs {
		arena.Uint64s.Put(s.keys)
		arena.Int32s.Put(s.idx)
	}
	s.keys, s.idx = nil, nil
}

// SortPairs is the package's SortPairs through this scratch, which must be
// at least as long as keys.
func (s *Scratch) SortPairs(ctx context.Context, keys []uint64, idx []int32) error {
	n := len(keys)
	if n <= smallSortPairs {
		insertionSortPairs(keys, idx)
		return nil
	}
	tmpKeys, tmpIdx := s.keys[:n], s.idx[:n]
	inTmp, err := radixSortPairs(ctx, keys, idx, tmpKeys, tmpIdx, true)
	if inTmp {
		copy(keys, tmpKeys)
		copy(idx, tmpIdx)
	}
	return err
}

// digitHist holds the bucket counts of all eight digits of a key range.
type digitHist [radixDigits][radixBuckets]int32

// radixSortPairs sorts the pairs in (aK, aI) with (bK, bI) as equally long
// scratch and reports which of the two holds the result: least significant
// digit first in cache, split by splitSortPairs above it.
func radixSortPairs(ctx context.Context, aK []uint64, aI []int32, bK []uint64, bI []int32, top bool) (inB bool, err error) {
	n := len(aK)
	if n <= smallSortPairs {
		insertionSortPairs(aK, aI)
		return false, nil
	}
	if n > cacheSortPairs {
		return false, splitSortPairs(ctx, aK, aI, bK, bI, top)
	}
	var hist digitHist
	if countDigits(&hist, aK) {
		return false, nil
	}
	for d := range hist {
		if !varies(&hist, d, aK[0], n) {
			continue
		}
		h := &hist[d]
		sum := int32(0)
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		scatterPairs(aK, aI, bK, bI, h, d*radixBits)
		aK, aI, bK, bI = bK, bI, aK, aI
		inB = !inB
	}
	return inB, nil
}

// splitSortPairs sorts an input above the cache size into (aK, aI): it
// splits the pairs on their most significant varying digit into b, then
// sorts every bucket on its own back into a. The digit is constant within a
// bucket, so the recursion never looks at it again.
//
// At the top level of a sort the passes run on ctx's workers. The
// histogram and the scatter cut the input into one contiguous part per
// worker, and each part's pairs go to slots of their bucket after every
// earlier part's, so the split is as stable as one pass. The buckets own
// disjoint ranges and are claimed by the workers in any order. A bucket
// that is split again runs on the worker that holds it.
func splitSortPairs(ctx context.Context, aK []uint64, aI []int32, bK []uint64, bI []int32, top bool) error {
	n := len(aK)
	parts := 1
	if top {
		parts = min(parallel.ContextWorkers(ctx), n/cacheSortPairs)
	}
	cut := func(p int) int { return n * p / parts }
	hists := make([]digitHist, parts)
	sorted := make([]bool, parts)
	if err := forParts(ctx, top, parts, func(p int) error {
		sorted[p] = countDigits(&hists[p], aK[cut(p):cut(p+1)])
		return nil
	}); err != nil {
		return err
	}
	var total digitHist
	done := true
	for p := range hists {
		done = done && sorted[p] && (p == 0 || aK[cut(p)-1] <= aK[cut(p)])
		for d := range total {
			for b, c := range hists[p][d] {
				total[d][b] += c
			}
		}
	}
	if done {
		return nil
	}
	d := radixDigits - 1
	for !varies(&total, d, aK[0], n) {
		d--
	}
	var bounds [radixBuckets + 1]int32
	offs := make([][radixBuckets]int32, parts)
	for b, c := range total[d] {
		bounds[b+1] = bounds[b] + c
		at := bounds[b]
		for p := range offs {
			offs[p][b] = at
			at += hists[p][d][b]
		}
	}
	if err := forParts(ctx, top, parts, func(p int) error {
		lo, hi := cut(p), cut(p+1)
		scatterPairs(aK[lo:hi], aI[lo:hi], bK, bI, &offs[p], d*radixBits)
		return nil
	}); err != nil {
		return err
	}
	return forParts(ctx, top, radixBuckets, func(b int) error {
		lo, hi := bounds[b], bounds[b+1]
		inA, err := radixSortPairs(ctx, bK[lo:hi], bI[lo:hi], aK[lo:hi], aI[lo:hi], false)
		if err == nil && !inA {
			copy(aK[lo:hi], bK[lo:hi])
			copy(aI[lo:hi], bI[lo:hi])
		}
		return err
	})
}

// forParts runs body(0) … body(n−1): on ctx's workers at the top level of a
// sort, on the calling goroutine below it. Either way ctx is polled between
// calls, and the first error ends the loop.
func forParts(ctx context.Context, top bool, n int, body func(i int) error) error {
	if top {
		errs := make([]error, n)
		if err := parallel.ForEachContext(ctx, n, func(i int) { errs[i] = body(i) }); err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := body(i); err != nil {
			return err
		}
	}
	return nil
}

// countDigits adds the digit counts of keys to h and reports whether keys
// are in ascending order.
func countDigits(h *digitHist, keys []uint64) (sorted bool) {
	sorted = true
	prev := keys[0]
	for _, k := range keys {
		if k < prev {
			sorted = false
		}
		prev = k
		h[0][uint8(k)]++
		h[1][uint8(k>>8)]++
		h[2][uint8(k>>16)]++
		h[3][uint8(k>>24)]++
		h[4][uint8(k>>32)]++
		h[5][uint8(k>>40)]++
		h[6][uint8(k>>48)]++
		h[7][uint8(k>>56)]++
	}
	return sorted
}

// varies reports whether the n keys h counts, key among them, differ in
// digit d.
func varies(h *digitHist, d int, key uint64, n int) bool {
	return h[d][uint8(key>>(d*radixBits))] != int32(n)
}

// scatterPairs is one stable radix pass: every pair of src moves to the next
// free slot of its digit's bucket in dst. offs holds the buckets' start
// offsets and is consumed.
func scatterPairs(srcK []uint64, srcI []int32, dstK []uint64, dstI []int32, offs *[radixBuckets]int32, shift int) {
	for i, k := range srcK {
		b := uint8(k >> shift)
		p := offs[b]
		offs[b] = p + 1
		dstK[p] = k
		dstI[p] = srcI[i]
	}
}

// insertionSortPairs is SortPairs' small-input kernel.
func insertionSortPairs(keys []uint64, idx []int32) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], idx[i]
		j := i
		for j > 0 && keys[j-1] > k {
			keys[j], idx[j] = keys[j-1], idx[j-1]
			j--
		}
		keys[j], idx[j] = k, v
	}
}
