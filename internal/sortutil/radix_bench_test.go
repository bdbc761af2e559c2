package sortutil

import (
	"math/rand"
	"testing"
)

// mix64 is splitmix64's finalizer — the hash core's distinct-aggregate
// preprocessing sorts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BenchmarkSortPairs times SortPairs on the four shapes the windowbench
// workloads produce: a 1M-row ORDER BY over uniform 62-bit keys and the 1M
// Zipf-skewed value hashes of cold_1m, and the 2,000- and 100-row partitions
// of mutate_requery_200k and multi_partitioned_200k. The small shapes are
// what fixes smallSortPairs. Each iteration refills the pairs (the sort is in
// place); the refill is a sequential copy, under 3 % of the 1M sort.
func BenchmarkSortPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(1<<62)) ^ 1<<63
		}
		return keys
	}
	zipf := rand.NewZipf(rng, 1.1, 1, 49999)
	hashes := make([]uint64, 1_000_000)
	for i := range hashes {
		hashes[i] = mix64(zipf.Uint64())
	}
	for _, tc := range []struct {
		name string
		keys []uint64
	}{
		{"uniform62/n1000000", uniform(1_000_000)},
		{"zipfhash/n1000000", hashes},
		{"uniform62/n2000", uniform(2000)},
		{"uniform62/n100", uniform(100)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			n := len(tc.keys)
			keys, idx := make([]uint64, n), make([]int32, n)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				copy(keys, tc.keys)
				for i := range idx {
					idx[i] = int32(i)
				}
				if err := SortPairs(nil, keys, idx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}
