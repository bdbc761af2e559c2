package sortutil

import (
	"slices"

	"holistic/internal/parallel"
)

// minParallelSort is the input size below which SortFunc falls back to a
// plain serial sort; smaller inputs are not worth the goroutine traffic.
const minParallelSort = 1 << 14

// SortFunc sorts a ascending according to cmp using a parallel merge sort:
// worker-count chunks are sorted independently (introsort via the standard
// library's pdqsort), then merged pairwise with splitter-parallelized merges
// (Francis et al. 1993) — the structure described in §5.2 of the paper.
//
// The sort is not stable; callers that need stability must make cmp total
// (the window operator always breaks ties on the original tuple position,
// which the paper relies on for Algorithm 1 as well).
func SortFunc[E any](a []E, cmp func(x, y E) int) {
	workers := parallel.Workers()
	if len(a) < minParallelSort || workers <= 1 {
		// SortFunc's documented contract makes cmp total (callers break ties on tuple position), so stability is vacuous.
		slices.SortFunc(a, cmp)
		return
	}
	// Round chunk count up to a power of two so that the merge rounds pair
	// up evenly.
	chunks := 1
	for chunks < 2*workers {
		chunks *= 2
	}
	if chunks > len(a)/minParallelSort*2 {
		chunks = largestPow2(max(1, len(a)*2/minParallelSort))
	}
	chunkLen := (len(a) + chunks - 1) / chunks
	bounds := make([]int, chunks+1)
	for i := range bounds {
		bounds[i] = min(i*chunkLen, len(a))
	}
	parallel.ForEach(chunks, func(i int) {
		// cmp is total per SortFunc's contract, see above.
		slices.SortFunc(a[bounds[i]:bounds[i+1]], cmp)
	})

	buf := make([]E, len(a))
	src, dst := a, buf
	for width := 1; width < chunks; width *= 2 {
		type mergeJob struct{ lo, mid, hi int }
		var jobs []mergeJob
		for i := 0; i+width < chunks; i += 2 * width {
			jobs = append(jobs, mergeJob{bounds[i], bounds[i+width], bounds[min(i+2*width, chunks)]})
		}
		parallel.ForEach(len(jobs), func(j int) {
			jb := jobs[j]
			ParallelMerge(dst[jb.lo:jb.hi], src[jb.lo:jb.mid], src[jb.mid:jb.hi], cmp)
		})
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

func largestPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// ParallelMerge merges the sorted runs x and y into dst (len(dst) must be
// len(x)+len(y)). Large merges are split into independent pieces by binary
// searching output-percentile splitters in both runs, so the pieces can be
// merged by different workers — the parallel multiway merge balancing scheme
// of Francis et al. that §5.2 cites.
func ParallelMerge[E any](dst, x, y []E, cmp func(a, b E) int) {
	const minPiece = 1 << 15
	n := len(dst)
	pieces := parallel.Workers()
	if pieces > n/minPiece {
		pieces = n / minPiece
	}
	if pieces <= 1 {
		MergeInto(dst, x, y, cmp)
		return
	}
	cuts := make([]int, pieces+1) // split positions in x
	cuts[pieces] = len(x)
	for p := 1; p < pieces; p++ {
		t := n * p / pieces
		i, _ := MergeSplit(x, y, t, cmp)
		cuts[p] = i
	}
	parallel.ForEach(pieces, func(p int) {
		t0 := n * p / pieces
		t1 := n * (p + 1) / pieces
		if p == pieces-1 {
			t1 = n
		}
		i0, j0 := cuts[p], t0-cuts[p]
		i1, j1 := cuts[p+1], t1-cuts[p+1]
		MergeInto(dst[t0:t1], x[i0:i1], y[j0:j1], cmp)
	})
}

// MergeSplit finds the stable split of the first t output elements of
// merging x and y: it returns (i, j) with i+j = t such that the first t
// outputs are exactly x[:i] followed-merged-with y[:j]. Ties are broken in
// favour of x (stable merge order).
func MergeSplit[E any](x, y []E, t int, cmp func(a, b E) int) (i, j int) {
	lo, hi := max(t-len(y), 0), min(t, len(x))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		// If x[m] sorts before y[t-m-1] (ties favour x), then x[m] belongs
		// to the first t outputs, so the split must take more from x.
		if t-m > 0 && cmp(x[m], y[t-m-1]) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, t - lo
}

// MergeInto serially merges sorted runs x and y into dst
// (len(dst) == len(x)+len(y)). Ties take from x first, making the merge
// stable.
func MergeInto[E any](dst, x, y []E, cmp func(a, b E) int) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if cmp(x[i], y[j]) <= 0 {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}
