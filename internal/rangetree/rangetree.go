// Package rangetree implements the three-dimensional range counting
// structure the paper prescribes for framed DENSE_RANK (§4.4): a range tree
// (Bentley) over the window positions whose nodes index their tuples by rank
// key, each carrying a nested merge sort tree over previous-occurrence
// indices.
//
// A framed dense rank needs the number of DISTINCT rank-key values inside
// the frame that compare smaller than the current row's key. Distinctness
// turns into a third dimension with the previous-occurrence trick of §4.2:
// count tuples with
//
//	position ∈ [frameLo, frameHi)   — dimension 1, the outer tree
//	rank key < current key          — dimension 2, sorted node lists
//	prevIdx  < frameLo+1            — dimension 3, nested merge sort trees
//
// The frame decomposes into O(log n) canonical nodes; in each node the rank
// constraint selects a prefix of the node's rank-sorted list, and the nested
// tree counts the prevIdx constraint over that prefix in O(log n). A query
// is O((log n)²) and the structure takes O(n (log n)²) space, matching the
// complexity the paper quotes for range trees with fractional cascading.
package rangetree

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"holistic/internal/mst"
	"holistic/internal/parallel"
)

// smallNode is the node size below which a linear scan beats a nested tree.
const smallNode = 16

type node struct {
	ranks []int64 // node's rank keys, sorted ascending
	prevs []int64 // prevIdx of the same tuples, in rank-sorted order
	inner *mst.Tree
}

// DenseRankTree answers framed dense-rank counting queries.
type DenseRankTree struct {
	n     int
	nodes []node
	// ranks and prevs are the partition's arrays in window order, owned by
	// the caller; the leaf nodes are one-element windows of them, so they
	// cost no bytes.
	ranks, prevs []int64
	// form is mst.Leaves on a structure built by NewLeaves — no nodes, every
	// frame scanned from ranks and prevs (mst's leaf-only form, leaf.go
	// there) — and mst.Full otherwise.
	form mst.Form
}

// MaxRows is the largest partition the structure indexes: node indices run
// up to 2n, and the batched walk keeps them in int32 scratch.
const MaxRows = (math.MaxInt32 - 1) / 2

// SizeError reports a partition of Rows rows, more than MaxRows.
type SizeError struct{ Rows int }

func (e *SizeError) Error() string {
	return fmt.Sprintf("rangetree: partition of %d rows exceeds the %d-row limit", e.Rows, MaxRows)
}

// checkInput validates the lengths of New's and NewLeaves' arrays before
// anything is sized from them.
func checkInput(ranks, prevIdcs int) error {
	if ranks != prevIdcs {
		return fmt.Errorf("rangetree: %d ranks but %d prevIdcs", ranks, prevIdcs)
	}
	if ranks > MaxRows {
		return &SizeError{Rows: ranks}
	}
	return nil
}

// NewLeaves builds the leaf-only form of New's structure: no nodes at all,
// only the partition arrays it is handed, which is all the leaf rule reads.
// It answers frames of at most mst.LeafRows rows; a wider one is the
// invariant violation CheckRows reports. A partition of more than MaxRows
// rows is refused with a *SizeError.
func NewLeaves(ranks, prevIdcs []int64) (*DenseRankTree, error) {
	if err := checkInput(len(ranks), len(prevIdcs)); err != nil {
		return nil, err
	}
	return &DenseRankTree{n: len(ranks), ranks: ranks, prevs: prevIdcs, form: mst.Leaves}, nil
}

// New builds the structure for a partition in window order. ranks[i] is the
// dense rank of row i's rank key (preprocess.DenseRanks); prevIdcs[i] is the
// shifted previous-occurrence index of that key (preprocess.PrevIndices
// computed on rank-key equality). A partition of more than MaxRows rows is
// refused with a *SizeError. The build runs under opt.Context and returns
// its error when that cut it short.
func New(ranks, prevIdcs []int64, opt mst.Options) (*DenseRankTree, error) {
	if err := checkInput(len(ranks), len(prevIdcs)); err != nil {
		return nil, err
	}
	n := len(ranks)
	t := &DenseRankTree{n: n, ranks: ranks, prevs: prevIdcs}
	if n == 0 {
		return t, nil
	}
	// The inner trees are not traced: there are O(n/smallNode) of them, and a
	// span per merge level of each makes a trace as long as the partition.
	// The caller's build phase span times them all.
	opt.Trace = nil
	t.nodes = make([]node, 2*n)
	for i := 0; i < n; i++ {
		t.nodes[n+i] = node{ranks: ranks[i : i+1], prevs: prevIdcs[i : i+1]}
	}
	// Merge children bottom-up in power-of-two bands (children of band
	// [2^j, 2^(j+1)) live in later bands or are leaves).
	band := 1
	for band*2 <= n-1 {
		band *= 2
	}
	// Inner-tree builds can fail (element limit); the first error wins.
	// The write is mutex-guarded because band tasks run concurrently.
	var errMu sync.Mutex
	var buildErr error
	setErr := func(err error) {
		errMu.Lock()
		if buildErr == nil {
			buildErr = err
		}
		errMu.Unlock()
	}
	for ; band >= 1; band /= 2 {
		bandLo, bandHi := band, 2*band
		if bandHi > n {
			bandHi = n
		}
		err := parallel.ForEachContext(opt.Context, bandHi-bandLo, func(off int) {
			i := bandLo + off
			l, r := &t.nodes[2*i], &t.nodes[2*i+1]
			nd := node{
				ranks: make([]int64, len(l.ranks)+len(r.ranks)),
				prevs: make([]int64, len(l.prevs)+len(r.prevs)),
			}
			li, ri, mi := 0, 0, 0
			for li < len(l.ranks) && ri < len(r.ranks) {
				if l.ranks[li] <= r.ranks[ri] {
					nd.ranks[mi], nd.prevs[mi] = l.ranks[li], l.prevs[li]
					li++
				} else {
					nd.ranks[mi], nd.prevs[mi] = r.ranks[ri], r.prevs[ri]
					ri++
				}
				mi++
			}
			for ; li < len(l.ranks); li++ {
				nd.ranks[mi], nd.prevs[mi] = l.ranks[li], l.prevs[li]
				mi++
			}
			for ; ri < len(r.ranks); ri++ {
				nd.ranks[mi], nd.prevs[mi] = r.ranks[ri], r.prevs[ri]
				mi++
			}
			if len(nd.prevs) >= smallNode {
				inner, err := mst.Build(nd.prevs, opt)
				if err != nil {
					setErr(err)
					return
				}
				nd.inner = inner
			}
			t.nodes[i] = nd
		})
		if buildErr != nil {
			return nil, buildErr
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Len returns the partition size.
func (t *DenseRankTree) Len() int { return t.n }

// CheckRows returns a *mst.WidthError when the structure cannot answer a
// frame of rows rows: only a leaf-only one has a limit, mst.LeafRows.
func (t *DenseRankTree) CheckRows(rows int) error { return mst.CheckRows(rows, t.form) }

// countLeaves is the leaf rule: the window positions [lo, hi) whose rank is
// below rankThreshold and whose prevIdx is below prevThreshold, counted in
// window order — exactly what the canonical nodes of [lo, hi) count between
// them. Callers guarantee 0 <= lo < hi <= n.
func (t *DenseRankTree) countLeaves(lo, hi int, rankThreshold, prevThreshold int64) int {
	c := 0
	prevs := t.prevs[lo:hi]
	for j, r := range t.ranks[lo:hi] {
		// Two conditional moves, not a branch: either test is as good as
		// random to a predictor.
		below, first := 0, 0
		if r < rankThreshold {
			below = 1
		}
		if prevs[j] < prevThreshold {
			first = 1
		}
		c += below & first
	}
	return c
}

// MemBytes reports the approximate resident size of the structure: the
// 2n-entry node array, and every inner node's rank/prevIdx arrays plus its
// nested tree. The leaf nodes are one-element windows into the partition
// arrays, which are the caller's, so they cost nothing; a leaf-only structure
// has no nodes and reports 0. Used for cache budget accounting.
func (t *DenseRankTree) MemBytes() int64 {
	total := int64(len(t.nodes)) * int64(unsafe.Sizeof(node{}))
	for i := 1; i < len(t.nodes)/2; i++ {
		nd := &t.nodes[i]
		total += int64(16 * len(nd.ranks))
		if nd.inner != nil {
			total += nd.inner.MemBytes()
		}
	}
	return total
}
