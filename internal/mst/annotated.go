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
// framed DISTINCT variants of distributive aggregates: the aggregate only
// needs a merge function — no inverse — which is what makes the approach
// applicable to user-defined aggregates (§4.3). The merge must be
// associative and commutative: a query adds each covered run prefix into
// its answer in place, in descent order, and a narrow range folds level 0
// in position order. Every sum core builds is a set of wrapping int64
// lanes held by one tree (BuildSum), a group, so no answer depends on either
// order.
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
// every element unique at the 32-bit width of every other tree. A key
// threshold t maps to below[t], the number of keys smaller than t, which is
// also its exact rank in the top run: the top run is the identity.
//
// A tree holds L lanes, states merged lane by lane: one for BuildAnnotated,
// one per lane of a sum for BuildSum. Level 0 is each lane's values in
// position order, the caller's slices, so a range of at most LeafRows rows
// is folded from there instead of descending (leaf.go). Every higher level
// holds an entry's L prefix states side by side, so one descent reads every
// lane of a covered prefix at once. A tree built by BuildSum, whose merge is
// wrapping int64 addition — a group — also answers a narrow range from the
// one before it (agg_diff.go).
type AnnotatedTree[S any] struct {
	t     *tree
	lanes [][]S // lanes[l][i]: lane l's value at position i, level 0
	// agg[level][i*L+l], level ≥ 1: lane l's prefix state at entry i of
	// that level; agg[0] is nil, level 0 being lanes.
	agg   [][]S
	merge func(S, S) S
	n     int
	below []int32 // below[t] = #keys < t, for t in [0, n+1]
	// sum is set by BuildSum: the merge is wrapping int64 addition and t
	// keeps topPos, so a narrow range is answered from the one before it.
	sum bool
	// form is Leaves on a tree built by BuildSum(…, Leaves), where t and
	// agg hold level 0 only, and Full otherwise.
	form Form
}

// BuildAnnotated constructs an annotated merge sort tree of one lane over
// keys, where values[i] is the aggregate input of tuple i and merge,
// associative and commutative, combines two aggregate states. Keys must lie
// in [0, len(keys)] — the previous-index domain of §5.1. The tree keeps
// values as its level 0, uncopied. Like BuildForm it runs under
// Options.Context and returns its error when that cut the build short.
func BuildAnnotated[K int32 | int64, S any](keys []K, values []S, merge func(S, S) S, opt Options) (*AnnotatedTree[S], error) {
	return buildAnnotated(keys, [][]S{values}, merge, opt, Full, false)
}

// buildAnnotated is BuildAnnotated over every lane of lanes in the given
// form, Full or Leaves; with sum set the tree keeps the inverse of the ranks
// as topPos (BuildSum). It validates its input, then ranks the keys: rank[i]
// is key i's position in the stable sort by (key, position), pos its
// inverse, and below[t] the number of keys smaller than t for t in [0, n+1].
func buildAnnotated[K int32 | int64, S any](keys []K, lanes [][]S, merge func(S, S) S, opt Options, form Form, sum bool) (*AnnotatedTree[S], error) {
	n := len(keys)
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if n >= math.MaxInt32 {
		return nil, fmt.Errorf("mst: input of %d elements exceeds the 2³¹ element limit", n)
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("mst: an annotated tree needs a lane")
	}
	for _, lane := range lanes {
		if len(lane) != n {
			return nil, fmt.Errorf("mst: %d keys but %d values", n, len(lane))
		}
	}
	cnt := make([]int32, n+3)
	if i := keyStarts(keys, cnt); i >= 0 {
		return nil, fmt.Errorf("mst: key %d at position %d outside previous-index domain [0, %d]", keys[i], i, n)
	}
	pos := arena.Int32s.Get(n)
	defer arena.Int32s.Put(pos)
	rank, below := make([]int32, n), cnt[:n+2]
	placeRanks(keys, cnt, rank, pos)
	var err error
	var tr *tree
	if form == Leaves {
		traceSkippedLevels(n, opt, Leaves)
		tr = leafTree(rank, opt)
	} else if tr, err = buildTree(rank, opt); err != nil {
		return nil, err
	}
	if sum {
		tr.topPos = slices.Clone(pos[:n])
	}
	at := &AnnotatedTree[S]{t: tr, lanes: lanes, merge: merge, n: n, below: below, sum: sum, form: form}
	if err := at.annotate(pos, opt); err != nil {
		return nil, err
	}
	return at, nil
}

// annotate sets agg from the lanes: every level above 0 holds its runs'
// prefix states, computed after the build in one parallel pass per level
// from the base position pos[r] of the element of rank r.
func (at *AnnotatedTree[S]) annotate(pos []int32, opt Options) error {
	n, nl := at.n, len(at.lanes)
	at.agg = make([][]S, len(at.t.levels))
	for l := 1; l < len(at.t.levels); l++ {
		elems, rl := at.t.levels[l], at.t.effLen[l]
		agg := make([]S, n*nl)
		err := parallel.ForEachContext(opt.Context, (n+rl-1)/rl, func(r int) {
			for lane, values := range at.lanes {
				acc := values[pos[elems[r*rl]]]
				agg[r*rl*nl+lane] = acc
				for i := r*rl + 1; i < min(r*rl+rl, n); i++ {
					acc = at.merge(acc, values[pos[elems[i]]])
					agg[i*nl+lane] = acc
				}
			}
		})
		if err != nil {
			return err
		}
		at.agg[l] = agg
	}
	return nil
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

// BuildSum builds the annotated tree of an int64 sum over keys, one lane
// per slice of lanes, in the given form, Leaves or Full: the one
// constructor that declares the merge wrapping addition, whose inverse lets
// AggBelowBatch answer a narrow range from the range before it
// (agg_diff.go). For that the tree also keeps the base position of every
// rank, topPos, 4 bytes per element that MemBytes charges. It keeps the
// lanes as its level 0, uncopied.
func BuildSum[K int32 | int64](keys []K, lanes [][]int64, opt Options, form Form) (*AnnotatedTree[int64], error) {
	return buildAnnotated(keys, lanes, addInt64, opt, form, true)
}

func addInt64(a, b int64) int64 { return a + b }

// Len returns the number of elements the tree was built over.
func (at *AnnotatedTree[S]) Len() int { return at.n }

// CheckRows returns a *WidthError when the tree cannot answer a range of
// rows rows: only a leaf-only tree has a limit, LeafRows.
func (at *AnnotatedTree[S]) CheckRows(rows int) error {
	return CheckRows(rows, at.form)
}

// leaf reports whether a range of w rows folds from level 0 (leaf.go).
func (at *AnnotatedTree[S]) leaf(w int) bool { return LeafRule(w, at.form) }

// MemBytes reports the approximate resident size of the tree: payloads,
// cascading pointers and origin stripes, a sum tree's topPos, the threshold
// map, plus every lane's values and prefix states, assuming aggBytes bytes
// per aggregate state. Used for cache budget accounting.
func (at *AnnotatedTree[S]) MemBytes(aggBytes int) int64 {
	states := len(at.lanes) * at.n
	for _, lv := range at.agg {
		states += len(lv)
	}
	return int64(at.t.stats().Bytes) + int64(4*len(at.below)) + int64(states*aggBytes)
}

// foldLeaves is the aggregate leaf rule: it merges into query q's answer
// the states of the entries at positions [lo, hi) whose rank is below ct,
// in position order, and returns how many there are; first says the answer
// holds no state yet. A sum tree adds every lane with d.fold; any other,
// one lane, calls its merge. Callers guarantee 0 <= lo < hi <= n.
func (at *AnnotatedTree[S]) foldLeaves(result []S, d *sumDiff, q, lo, hi int, ct int32, first bool) (cnt int32) {
	if at.sum {
		return d.fold(q, lo, hi, ct)
	}
	values := at.lanes[0][lo:hi]
	for j, r := range at.t.levels[0][lo:hi] {
		if r >= ct {
			continue
		}
		if first && cnt == 0 {
			result[q] = values[j]
		} else {
			result[q] = at.merge(result[q], values[j])
		}
		cnt++
	}
	return cnt
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
