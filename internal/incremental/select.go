package incremental

import (
	"math/rand"
	"sort"

	"holistic/internal/ostree"
)

// KthFunc maps a frame size to the 0-based index of the element a selection
// query asks for: percentile_disc(p) uses ceil(p·size)−1, a median size/2,
// nth_value(k) uses k−1. A negative return marks the row's result NULL.
type KthFunc func(size int) int

// SelectKthRange evaluates a framed "k-th smallest value" (percentiles,
// framed value functions) for rows [rowLo, rowHi) with Wesley and Xu's
// incremental strategy: the frame's values are kept in a sorted buffer that
// is updated by binary search plus memmove as tuples enter and leave. Each
// update is O(w), giving the O(n·w) = O(n²) worst case of Table 1 — but very
// small constants, which is why it wins for tiny frames (Figure 11).
// valid[i] is false when the query selects nothing (empty frame).
func SelectKthRange(keys []int64, frame FrameFunc, kth KthFunc, out []int64, valid []bool, rowLo, rowHi int) {
	buf := make([]int64, 0, 1024)
	insert := func(p int) {
		k := keys[p]
		i := sort.Search(len(buf), func(i int) bool { return buf[i] > k })
		buf = append(buf, 0)
		copy(buf[i+1:], buf[i:])
		buf[i] = k
	}
	remove := func(p int) {
		k := keys[p]
		i := sort.Search(len(buf), func(i int) bool { return buf[i] >= k })
		buf = append(buf[:i], buf[i+1:]...)
	}
	var w Window
	for i := rowLo; i < rowHi; i++ {
		lo, hi := frame(i)
		w.Advance(lo, hi, insert, remove)
		k := kth(len(buf))
		if k < 0 || k >= len(buf) {
			valid[i] = false
			continue
		}
		out[i] = buf[k]
		valid[i] = true
	}
}

// SelectKthOSTreeRange is the order-statistic-tree competitor (§5.5): the
// frame is maintained in a counted B-tree, so updates and selections are
// O(log w) — serially optimal, but the per-task state rebuild still costs
// O(w log w), which Figure 11 shows overtaking the merge sort tree once
// frames approach the task size.
func SelectKthOSTreeRange(keys []int64, frame FrameFunc, kth KthFunc, out []int64, valid []bool, rowLo, rowHi int) {
	var tree ostree.Tree
	var w Window
	for i := rowLo; i < rowHi; i++ {
		lo, hi := frame(i)
		w.Advance(lo, hi,
			func(p int) { tree.Insert(keys[p]) },
			func(p int) { tree.Delete(keys[p]) })
		k := kth(tree.Len())
		v, ok := tree.Kth(k)
		if !ok {
			valid[i] = false
			continue
		}
		out[i] = v
		valid[i] = true
	}
}

// SelectKthNaiveRange evaluates the framed selection by copying each frame
// and running quickselect — O(w) per row with no state to rebuild, which
// makes it the most task-parallel-friendly competitor and still O(n·w)
// overall.
func SelectKthNaiveRange(keys []int64, frame FrameFunc, kth KthFunc, out []int64, valid []bool, rowLo, rowHi int) {
	var buf []int64
	rng := rand.New(rand.NewSource(int64(rowLo)*2654435761 + 1))
	for i := rowLo; i < rowHi; i++ {
		lo, hi := frame(i)
		k := kth(hi - lo)
		if k < 0 || k >= hi-lo {
			valid[i] = false
			continue
		}
		buf = append(buf[:0], keys[lo:hi]...)
		out[i] = quickselect(buf, k, rng)
		valid[i] = true
	}
}

// quickselect returns the k-th smallest element of a, permuting a in place.
func quickselect(a []int64, k int, rng *rand.Rand) int64 {
	lo, hi := 0, len(a) // active range [lo, hi)
	for hi-lo > 1 {
		pivot := a[lo+rng.Intn(hi-lo)]
		// 3-way partition of [lo, hi) around pivot.
		lt, gt := lo, hi
		for i := lo; i < gt; {
			switch {
			case a[i] < pivot:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] > pivot:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	return a[lo]
}
