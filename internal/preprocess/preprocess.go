// Package preprocess implements the per-partition preprocessing stages that
// feed merge sort trees (§4.2, §4.5, §5.1): computing previous-occurrence
// indices (Algorithm 1), dense rank numbering (Figure 8), permutation
// arrays (Figure 6), row numbers, and the index remapping used for
// IGNORE NULLS and the FILTER clause (§4.7).
//
// All stages work on a partition's rows in window (frame) order on plain
// integers: arbitrary SQL types, collations and multi-column ORDER BY
// clauses are reduced to order-preserving key words before the tree sees
// them (core's sortRows) — exactly the split §5.1 describes: "we avoid
// handling all SQL types and intricacies of ORDER BY clauses ... as part of
// the merge sort tree and instead move this complexity into the
// preprocessing step."
package preprocess

import (
	"cmp"
	"slices"

	"holistic/internal/arena"
	"holistic/internal/sortutil"
)

// SortIndices returns the positions 0..n-1 sorted ascending by compare, with
// the original position as tiebreaker. The tiebreak makes the sort stable —
// the property Algorithm 1 relies on ("effectively a stable sort ...
// leaving the relative order of duplicates unchanged"). It is a serial
// standard-library sort for the paper's baselines in cmd/paperbench, the
// benchmark's layer timings and the tests' reference orders; the window
// operator's sorts go through core's key words and integer keys through
// SortIndicesByKey.
func SortIndices(n int, compare func(a, b int) int) []int32 {
	idx := identity(n)
	slices.SortFunc(idx, func(a, b int32) int {
		if c := compare(int(a), int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// SortIndicesByKey is SortIndices for precomputed int64 keys: the keys are
// biased to order-preserving unsigned words in pooled scratch and the
// (word, position) pairs go through the stable radix sort, so no comparator
// and no tiebreak runs.
func SortIndicesByKey(keys []int64) []int32 {
	idx := identity(len(keys))
	words := arena.Uint64s.Get(len(keys))
	defer arena.Uint64s.Put(words)
	for i, k := range keys {
		words[i] = uint64(k) ^ 1<<63
	}
	_ = sortutil.SortPairs(nil, words, idx) // fails only on a cancelled context; nil never is
	return idx
}

// identity returns the positions 0..n-1 in order.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// PrevIndices implements Algorithm 1 on an already sorted index array: for
// every position it computes the index of the previous occurrence of the
// same value, in the shifted representation of §5.1 — 0 for "no previous
// occurrence" ("–" in Figure 1), previousIndex+1 otherwise. same must
// report value equality of two positions.
//
// The resulting array is the merge sort tree payload for framed distinct
// aggregates: the distinct count of frame [lo, hi) is the number of entries
// in prevIdcs[lo:hi] that are < lo+1.
func PrevIndices(sorted []int32, same func(a, b int) bool) []int64 {
	prev := make([]int64, len(sorted))
	for i := 1; i < len(sorted); i++ {
		if same(int(sorted[i-1]), int(sorted[i])) {
			prev[sorted[i]] = int64(sorted[i-1]) + 1
		}
	}
	return prev
}

// PrevIndicesByKey runs Algorithm 1 for precomputed int64 keys.
func PrevIndicesByKey(keys []int64) []int64 {
	sorted := SortIndicesByKey(keys)
	return PrevIndices(sorted, func(a, b int) bool { return keys[a] == keys[b] })
}

// DenseRanks numbers each position with the 0-based dense rank of its value
// (Figure 8): equal values share a number, and numbers are consecutive. It
// returns the ranks in position order and the number of distinct values.
// RANK and CUME_DIST queries use these as the merge sort tree payload.
func DenseRanks(sorted []int32, same func(a, b int) bool) (ranks []int64, distinct int) {
	ranks = make([]int64, len(sorted))
	rank := int64(-1)
	for i, pos := range sorted {
		if i == 0 || !same(int(sorted[i-1]), int(pos)) {
			rank++
		}
		ranks[pos] = rank
	}
	return ranks, int(rank + 1)
}

// RowNumbers assigns each position its 0-based index in the sorted order —
// the position-disambiguated ranks used by ROW_NUMBER and LEAD/LAG (§4.4:
// "duplicate elements [are disambiguated] based on their position in the
// input data, such that two elements never compare as equal").
func RowNumbers(sorted []int32) []int64 {
	rowno := make([]int64, len(sorted))
	for r, pos := range sorted {
		rowno[pos] = int64(r)
	}
	return rowno
}

// Permutation returns the permutation array of Figure 6 for percentile and
// value-function queries: entry r holds the position (in window order) of
// the r-th smallest value. This is exactly the sorted index array, widened
// to int64.
func Permutation(sorted []int32) []int64 {
	perm := make([]int64, len(sorted))
	for r, pos := range sorted {
		perm[r] = int64(pos)
	}
	return perm
}

// Remap translates frame positions between a partition and its filtered
// subset, implementing IGNORE NULLS and the FILTER clause (§4.5, §4.7): the
// merge sort tree is built only on the kept tuples, and original frame
// boundaries are remapped with a prefix-count array. Both directions are
// O(1) per lookup after an O(n) build.
type Remap struct {
	kept   []int32
	prefix []int32 // prefix[i] = kept positions < i; len n+1
}

// NewRemap builds a remapping from an inclusion mask.
func NewRemap(include []bool) *Remap {
	r := &Remap{prefix: make([]int32, len(include)+1)}
	for i, inc := range include {
		r.prefix[i+1] = r.prefix[i]
		if inc {
			r.kept = append(r.kept, int32(i))
			r.prefix[i+1]++
		}
	}
	return r
}

// Len returns the number of kept positions.
func (r *Remap) Len() int { return len(r.kept) }

// ToFiltered maps an original frame boundary to the filtered domain: the
// number of kept positions before orig.
func (r *Remap) ToFiltered(orig int) int {
	if orig < 0 {
		return 0
	}
	if orig >= len(r.prefix) {
		return len(r.kept)
	}
	return int(r.prefix[orig])
}

// ToOriginal maps a filtered position back to its original position.
func (r *Remap) ToOriginal(filtered int) int {
	return int(r.kept[filtered])
}

// Kept reports whether original position i survived the filter.
func (r *Remap) Kept(i int) bool {
	return r.prefix[i+1] > r.prefix[i]
}
