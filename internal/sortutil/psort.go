package sortutil

import (
	"context"
	"slices"

	"holistic/internal/parallel"
)

// minParallelSort is the input size below which SortFunc sorts in one
// serial call; smaller inputs are not worth the goroutine traffic.
const minParallelSort = 1 << 14

// SortFunc sorts a ascending according to cmp using a parallel merge sort:
// chunks are sorted independently (introsort via the standard library's
// pdqsort), then merged pairwise with splitter-parallelized merges (Francis
// et al. 1993) — the structure described in §5.2 of the paper.
//
// The loops run on ctx's workers (parallel.ForEachContext: its worker cap,
// its span), two chunks per worker, and ctx is polled between chunks and
// between merge rounds — on one worker too, where an input of at least
// minParallelSort elements is still cut into two chunks so that a
// cancelled caller does not wait for a whole sort. When ctx has ended
// SortFunc returns its error and leaves a in an unspecified order. A nil
// ctx disables cancellation.
//
// The sort is not stable; callers that need stability must make cmp total
// (the window operator always breaks ties on the original tuple position,
// which the paper relies on for Algorithm 1 as well).
func SortFunc[E any](ctx context.Context, a []E, cmp func(x, y E) int) error {
	if len(a) < minParallelSort {
		// SortFunc's documented contract makes cmp total (callers break ties on tuple position), so stability is vacuous.
		slices.SortFunc(a, cmp)
		return nil
	}
	// Round chunk count up to a power of two so that the merge rounds pair
	// up evenly.
	workers := parallel.ContextWorkers(ctx)
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
	if err := parallel.ForEachContext(ctx, chunks, func(i int) {
		// cmp is total per SortFunc's contract, see above.
		slices.SortFunc(a[bounds[i]:bounds[i+1]], cmp)
	}); err != nil {
		return err
	}

	buf := make([]E, len(a))
	src, dst := a, buf
	var pieces []mergePiece[E]
	for width := 1; width < chunks; width *= 2 {
		// One loop per round, over every merge of the round cut into
		// pieces: the workers share the round's pieces, and no merge opens
		// a loop of its own under theirs.
		jobs := (chunks + 2*width - 1) / (2 * width)
		pieces = pieces[:0]
		for i := 0; i+width < chunks; i += 2 * width {
			lo, mid, hi := bounds[i], bounds[i+width], bounds[min(i+2*width, chunks)]
			pieces = splitMerge(pieces, dst[lo:hi], src[lo:mid], src[mid:hi], max(1, workers/jobs), cmp)
		}
		if err := mergePieces(ctx, pieces, cmp); err != nil {
			return err
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return nil
}

func largestPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// minMergePiece is the fewest outputs a merge is cut into pieces for.
const minMergePiece = 1 << 15

// mergePiece is one independent part of a merge: dst is x merged with y.
type mergePiece[E any] struct{ dst, x, y []E }

// splitMerge appends the merge of x and y into dst (len(dst) must be
// len(x)+len(y)) to out, cut into at most pieces parts of at least
// minMergePiece outputs each by binary searching output-percentile
// splitters in both runs, so the parts can be merged by different workers —
// the parallel multiway merge balancing scheme of Francis et al. that §5.2
// cites.
func splitMerge[E any](out []mergePiece[E], dst, x, y []E, pieces int, cmp func(a, b E) int) []mergePiece[E] {
	n := len(dst)
	pieces = min(pieces, n/minMergePiece)
	if pieces <= 1 {
		return append(out, mergePiece[E]{dst, x, y})
	}
	i0, t0 := 0, 0
	for p := 1; p <= pieces; p++ {
		t1, i1 := n*p/pieces, len(x)
		if p < pieces {
			i1, _ = MergeSplit(x, y, t1, cmp)
		}
		out = append(out, mergePiece[E]{dst[t0:t1], x[i0:i1], y[t0-i0 : t1-i1]})
		i0, t0 = i1, t1
	}
	return out
}

// mergePieces runs the merge pieces on ctx's workers.
func mergePieces[E any](ctx context.Context, pieces []mergePiece[E], cmp func(a, b E) int) error {
	return parallel.ForEachContext(ctx, len(pieces), func(p int) {
		MergeInto(pieces[p].dst, pieces[p].x, pieces[p].y, cmp)
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
