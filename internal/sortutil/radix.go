package sortutil

import (
	"context"

	"holistic/internal/arena"
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
// is sorted by calling SortPairs once per word, least significant first.
//
// The sort is a closure-free radix sort over 8-bit digits. One pre-pass
// fills the histograms of all eight digits; a digit on which every key
// agrees is skipped, so the number of scatter passes is the number of bytes
// in which the keys actually differ. ctx (which may be nil) is checked
// between the buckets of a large input; when it has ended the sort returns
// its error and leaves keys and idx in an unspecified order.
func SortPairs(ctx context.Context, keys []uint64, idx []int32) error {
	if len(keys) <= smallSortPairs {
		insertionSortPairs(keys, idx)
		return nil
	}
	// Cache-sized scatter targets are borrowed from the arena pools: the
	// 2,000 partitions of one statement reuse them instead of leaving 24 KB
	// of garbage each. Larger ones are allocated and die with the sort: a
	// pooled buffer stays reachable between statements (once per P), the
	// collector sizes its heap goal from what is reachable, and windowbench
	// read pooled 1M-row targets as +6 % peak RSS on cold_1m, allocated ones
	// as −3 %.
	var tmpKeys []uint64
	var tmpIdx []int32
	if len(keys) <= cacheSortPairs {
		tmpKeys, tmpIdx = arena.Uint64s.Get(len(keys)), arena.Int32s.Get(len(keys))
		defer arena.Uint64s.Put(tmpKeys)
		defer arena.Int32s.Put(tmpIdx)
	} else {
		tmpKeys, tmpIdx = make([]uint64, len(keys)), make([]int32, len(keys))
	}
	inTmp, err := radixSortPairs(ctx, keys, idx, tmpKeys, tmpIdx)
	if inTmp {
		copy(keys, tmpKeys)
		copy(idx, tmpIdx)
	}
	return err
}

// radixSortPairs sorts the pairs in (aK, aI) with (bK, bI) as equally long
// scratch and reports which of the two holds the result.
func radixSortPairs(ctx context.Context, aK []uint64, aI []int32, bK []uint64, bI []int32) (inB bool, err error) {
	n := len(aK)
	if n <= smallSortPairs {
		insertionSortPairs(aK, aI)
		return false, nil
	}
	var hist [radixDigits][radixBuckets]int32
	sorted := true
	prev := aK[0]
	for _, k := range aK {
		if k < prev {
			sorted = false
		}
		prev = k
		hist[0][uint8(k)]++
		hist[1][uint8(k>>8)]++
		hist[2][uint8(k>>16)]++
		hist[3][uint8(k>>24)]++
		hist[4][uint8(k>>32)]++
		hist[5][uint8(k>>40)]++
		hist[6][uint8(k>>48)]++
		hist[7][uint8(k>>56)]++
	}
	if sorted {
		return false, nil
	}
	varies := func(d int) bool { return hist[d][uint8(aK[0]>>(d*radixBits))] != int32(n) }

	if n > cacheSortPairs {
		// Split on the most significant varying digit, then sort every
		// bucket on its own. The digit is constant within a bucket, so the
		// recursion never looks at it again.
		d := radixDigits - 1
		for !varies(d) {
			d--
		}
		h := &hist[d]
		var bounds [radixBuckets + 1]int32
		for b, c := range h {
			bounds[b+1] = bounds[b] + c
			h[b] = bounds[b]
		}
		scatterPairs(aK, aI, bK, bI, h, d*radixBits)
		for b := 0; b < radixBuckets; b++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			// The bucket sits in b; its result belongs in a.
			lo, hi := bounds[b], bounds[b+1]
			inA, err := radixSortPairs(ctx, bK[lo:hi], bI[lo:hi], aK[lo:hi], aI[lo:hi])
			if err != nil {
				return false, err
			}
			if !inA {
				copy(aK[lo:hi], bK[lo:hi])
				copy(aI[lo:hi], bI[lo:hi])
			}
		}
		return false, nil
	}

	for d := range hist {
		if !varies(d) {
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
