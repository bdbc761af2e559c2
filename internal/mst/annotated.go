package mst

import (
	"fmt"
	"math"
	"slices"

	"holistic/internal/arena"
	"holistic/internal/parallel"
)

// AnnotatedTree is a merge sort tree whose elements additionally carry
// running prefix aggregates within every sorted run (Figure 5). It evaluates
// framed DISTINCT variants of arbitrary distributive (or algebraic)
// aggregates: the aggregate only needs a merge function — no inverse — which
// is what makes the approach applicable to user-defined aggregates (§4.3).
//
// The tree is keyed by the previous-occurrence index of each tuple
// (Algorithm 1): an entry's value contributes to a frame [lo, hi) exactly
// when its position is inside the frame and its previous occurrence lies
// before lo, i.e. exactly when a count query would count it. The
// aggregate over a frame is therefore assembled from the same run prefixes
// the count query visits, using the stored prefix aggregates.
//
// Only the order of the keys matters to any of this, never their values, so
// the tree is built in the rank domain: element i's payload is its rank in
// the stable sort by (key, position) — a permutation of 0…n−1, which makes
// every element unique and every run's merge order reproducible (the float
// prefix aggregates depend on it) at the 32-bit width of every other tree. A
// key threshold t maps to below[t], the number of keys smaller than t, which
// is also its exact rank in the top run: the top run is the identity.
//
// Level 0 holds each element's own state in position order (agg[0][j] is
// values[j]), so for int64 states a range of at most LeafRows rows is folded
// from there in position order instead of descending (leaf.go): every
// integer aggregate's merge — wrapping addition, min, max — is associative
// and commutative, so the bits cannot differ from the descent's order. A
// float state's fold order is part of its answer, so it always descends.
type AnnotatedTree[S any] struct {
	t     *tree
	agg   [][]S
	merge func(S, S) S
	n     int
	below []int32 // below[t] = #keys < t, for t in [0, n+1]
	// leafFold is set when S is int64: narrow ranges fold level 0.
	leafFold bool
	// leafOnly marks a tree built by BuildAnnotatedLeaves: t and agg hold
	// level 0 only.
	leafOnly bool
}

// BuildAnnotated constructs an annotated merge sort tree over keys, where
// values[i] is the aggregate input of tuple i and merge combines two
// aggregate states. Keys must lie in [0, len(keys)] — the previous-index
// domain of §5.1. For int64 states merge must be associative and
// commutative, as every integer aggregate's is: narrow ranges fold in
// position order.
func BuildAnnotated[S any](keys []int64, values []S, merge func(S, S) S, opt Options) (*AnnotatedTree[S], error) {
	n := len(keys)
	posOfRank := arena.Int32s.Get(n) // inverse of rank, needed only while annotating
	defer arena.Int32s.Put(posOfRank)
	opt, rank, below, err := annotatedRanks(keys, len(values), opt, posOfRank)
	if err != nil {
		return nil, err
	}
	at := &AnnotatedTree[S]{
		t:     buildTree(rank, opt),
		merge: merge,
		n:     n,
		below: below,
	}
	_, at.leafFold = any(values).([]int64)
	// Annotate every level with per-run prefix aggregates. The base position
	// of an element is the inverse of its rank, so annotations can be
	// computed after the build in one parallel pass per level.
	at.agg = make([][]S, len(at.t.levels))
	for l := range at.t.levels {
		elems := at.t.levels[l]
		agg := make([]S, len(elems))
		rl := at.t.effLen[l]
		numRuns := 1
		if rl > 0 {
			numRuns = (n + rl - 1) / rl
		}
		build := func(r int) {
			start := r * rl
			end := start + rl
			if end > n {
				end = n
			}
			var acc S
			for i := start; i < end; i++ {
				v := values[posOfRank[elems[i]]]
				if i == start {
					acc = v
				} else {
					acc = merge(acc, v)
				}
				agg[i] = acc
			}
		}
		if opt.Serial {
			for r := 0; r < numRuns; r++ {
				build(r)
			}
		} else {
			parallel.ForEach(numRuns, build)
		}
		at.agg[l] = agg
	}
	return at, nil
}

// annotatedRanks validates BuildAnnotated's input and ranks it: rank[i] is
// key i's position in the stable sort by (key, position), and below[t] the
// number of keys smaller than t for t in [0, n+1]. A non-nil pos receives the
// inverse of rank. The returned options are resolved for n.
func annotatedRanks(keys []int64, nValues int, opt Options, pos []int32) (Options, []int32, []int32, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return opt, nil, nil, err
	}
	n := len(keys)
	if nValues != n {
		return opt, nil, nil, fmt.Errorf("mst: %d keys but %d values", n, nValues)
	}
	if n >= math.MaxInt32 {
		return opt, nil, nil, fmt.Errorf("mst: input of %d elements exceeds the 2³¹ element limit", n)
	}
	cnt := make([]int32, n+3)
	if i := keyStarts(keys, cnt); i >= 0 {
		return opt, nil, nil, fmt.Errorf("mst: key %d at position %d outside previous-index domain [0, %d]", keys[i], i, n)
	}
	rank := make([]int32, n)
	placeRanks(keys, cnt, rank, pos)
	return opt, rank, cnt[:n+2], nil
}

// keyStarts and placeRanks are the two halves of the one stable counting
// pass over keys in [0, n], n = len(keys), that ranks an annotated tree's keys
// and orders a Tree's top run by base position (topPositions). cnt[k+2]
// first counts key k, so after the prefix sum cnt[k+1] = #keys < k is where
// key k's ranks start; ranking in position order advances it past the keys
// equal to k, which leaves cnt[t] = #keys < t for every t in [0, n+1] — the
// threshold map.
//
// keyStarts is the counting half over cnt, n+3 zeroed entries. It returns
// the position of the first key outside [0, n], or -1; on a key outside, cnt
// is left unspecified and nothing is ranked.
func keyStarts[K int32 | int64](keys []K, cnt []int32) int {
	n := int64(len(keys))
	for i, k := range keys {
		if k < 0 || int64(k) > n {
			return i
		}
		cnt[k+2]++
	}
	for t := 1; t < len(cnt); t++ {
		cnt[t] += cnt[t-1]
	}
	return -1
}

// placeRanks is the ranking half: key i takes rank r, the next of its key's,
// recorded as rank[i] = r and pos[r] = i in whichever of rank and pos is
// non-nil.
func placeRanks[K int32 | int64](keys []K, cnt, rank, pos []int32) {
	for i, k := range keys {
		r := cnt[k+1]
		cnt[k+1]++
		if rank != nil {
			rank[i] = r
		}
		if pos != nil {
			pos[r] = i32(i)
		}
	}
}

// BuildAnnotatedLeaves builds the leaf-only form of BuildAnnotated's tree
// (leaf.go): level 0's ranks, its states (agg[0]) and the threshold map,
// answering AggBelowBatch over ranges of at most
// LeafRows rows. Only int64 states fold in position order, so any other S is
// refused; keys and values are validated exactly as BuildAnnotated validates
// them.
func BuildAnnotatedLeaves[S any](keys []int64, values []S, merge func(S, S) S, opt Options) (*AnnotatedTree[S], error) {
	if _, ok := any(values).([]int64); !ok {
		return nil, fmt.Errorf("mst: a leaf-only annotated tree needs int64 states, got %T", values)
	}
	opt, rank, below, err := annotatedRanks(keys, len(values), opt, nil)
	if err != nil {
		return nil, err
	}
	traceSkippedLevels(len(keys), opt)
	return &AnnotatedTree[S]{
		t:        leafTree(rank, opt),
		agg:      [][]S{slices.Clone(values)},
		merge:    merge,
		n:        len(keys),
		below:    below,
		leafFold: true,
		leafOnly: true,
	}, nil
}

// Len returns the number of elements the tree was built over.
func (at *AnnotatedTree[S]) Len() int { return at.n }

// CheckRows returns a *WidthError when the tree cannot answer a range of
// rows rows: only a leaf-only tree has a limit, LeafRows.
func (at *AnnotatedTree[S]) CheckRows(rows int) error {
	return CheckRows(rows, at.leafOnly)
}

// leaf reports whether a range of w rows folds from level 0 (leaf.go).
func (at *AnnotatedTree[S]) leaf(w int) bool { return at.leafFold && leafRule(w, at.leafOnly) }

// MemBytes reports the approximate resident size of the tree: payloads,
// cascading pointers and origin stripes, the threshold map, plus the
// per-element aggregate annotations, assuming aggBytes bytes per aggregate
// state. Used for cache budget accounting.
func (at *AnnotatedTree[S]) MemBytes(aggBytes int) int64 {
	total := int64(at.t.stats().Bytes) + int64(4*len(at.below))
	for _, lv := range at.agg {
		total += int64(len(lv) * aggBytes)
	}
	return total
}

// foldLeaves is the aggregate leaf rule: the states of the entries at
// positions [lo, hi) whose rank is below ct, merged in position order, and
// how many there are. Callers guarantee 0 <= lo < hi <= n and leafFold.
func (at *AnnotatedTree[S]) foldLeaves(lo, hi int, ct int32) (result S, ok bool, cnt int32) {
	vals := at.agg[0][lo:hi]
	for j, r := range at.t.levels[0][lo:hi] {
		if r >= ct {
			continue
		}
		if cnt == 0 {
			result = vals[j]
		} else {
			result = at.merge(result, vals[j])
		}
		cnt++
	}
	return result, cnt > 0, cnt
}

// clip clamps the position range and maps the key threshold to the rank
// domain: the elements with key < threshold are exactly those with rank
// < below[threshold].
func (at *AnnotatedTree[S]) clip(lo, hi int, threshold int64) (int, int, int32, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > at.n {
		hi = at.n
	}
	if lo >= hi || threshold <= 0 {
		return 0, 0, 0, false
	}
	return lo, hi, at.below[min(threshold, int64(at.n)+1)], true
}
