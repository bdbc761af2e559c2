package mst

import (
	"math"

	"holistic/internal/arena"
	"holistic/internal/parallel"
)

// Level spans: buildTree opens one "mst: merge level" span per level under
// Options.Trace (package obs), annotated with the level number and run
// count, so a trace shows where construction time goes as the runs grow.

// buildTree constructs the tree levels bottom-up (§4.2): level l is produced
// by f-way merges of the runs of level l-1. The merge keeps, every k
// outputs, a snapshot of how many elements it has consumed from each child
// run — these snapshots are exactly the fractional-cascading pointers of
// Figure 4, produced "as a byproduct of constructing the merge sort tree by
// persisting the input iterators used during the merge steps". The merge
// also persists its decisions: the origin stripe records, per output, which
// child it was taken from, so a query can count exactly how far each child
// had advanced between two snapshots instead of searching for it.
//
// Lower levels have many runs, so runs are batched into tasks of roughly
// DefaultTaskSize tuples; upper levels have few runs, so the merge itself is
// split into independent output pieces whose child splits are found with a
// rank binary search over the value domain (§5.2).
//
// Allocation discipline: the level, sample and origin arrays for the whole tree
// are carved out of one arena slab per element type (their total size is known
// up front), and each merge task borrows its scratch state — consumed
// counters, tournament tree, head values — from the shared pools, so a
// steady stream of builds allocates only the slabs themselves.
func buildTree(base []int32, opt Options) *tree {
	n := len(base)
	t := &tree{n: n, f: opt.Fanout, k: opt.SampleEvery}
	t.levels = [][]int32{base}
	t.samples = [][]int32{nil}
	t.origin = [][]uint8{nil}
	t.stride = []int{0}
	t.effLen = []int{1}
	if n <= 1 {
		return t
	}
	cascade := !opt.NoCascading // samples and origin stripes come together

	// Pre-size one slab per element type so the arena never grows: every
	// level holds exactly n payload elements, and the sample table size per
	// level follows from the run count and stride.
	totalP, totalS, totalO := 0, 0, 0
	// Each level's slab is cache-line aligned (AllocAligned), so budget
	// one line of alignment slack per stripe on top of the exact sizes.
	const slackP = cacheLineBytes / 4
	for rl := 1; rl < n; {
		rl *= t.f
		if rl > n {
			rl = n
		}
		totalP += n + slackP
		if cascade {
			numRuns := (n + rl - 1) / rl
			totalS += numRuns*sampleStride(rl, t.k, t.f) + cacheLineBytes/4
			totalO += n + cacheLineBytes
		}
	}
	arP := arena.New[int32](totalP)
	var arS *arena.Arena[int32]
	var arO *arena.Arena[uint8]
	if cascade {
		arS = arena.New[int32](totalS)
		arO = arena.New[uint8](totalO)
	}

	for rl := 1; rl < n; {
		rl *= t.f
		if rl > n {
			rl = n
		}
		level := len(t.levels)
		t.effLen = append(t.effLen, rl)
		t.levels = append(t.levels, arP.AllocAligned(n, cacheLineBytes))
		numRuns := (n + rl - 1) / rl
		var samples []int32
		var origin []uint8
		stride := 0
		if cascade {
			stride = sampleStride(rl, t.k, t.f)
			// Sample slots beyond a run's child count — including the
			// cache-line padding tail of every run row — stay zero; the
			// arena hands out zeroed memory.
			samples = arS.AllocAligned(numRuns*stride, cacheLineBytes)
			origin = arO.AllocAligned(n, cacheLineBytes)
		}
		t.samples = append(t.samples, samples)
		t.stride = append(t.stride, stride)
		t.origin = append(t.origin, origin)

		lsp := opt.Trace.Child("mst: merge level")
		lsp.SetInt("level", int64(level))
		lsp.AddInt("runs", int64(numRuns))

		workers := parallel.Workers()
		if opt.Serial || numRuns >= workers || workers == 1 {
			if opt.Serial {
				buf, vals := mergeScratch(t.f)
				for r := 0; r < numRuns; r++ {
					t.mergeRun(level, r, samples, stride, buf, vals)
				}
				putMergeScratch(buf, vals)
			} else {
				// Batch runs so one scratch acquisition serves ~one task's
				// worth of tuples.
				runsPerTask := 1
				if rl < parallel.DefaultTaskSize {
					runsPerTask = (parallel.DefaultTaskSize + rl - 1) / rl
				}
				parallel.For(numRuns, runsPerTask, func(lo, hi int) {
					buf, vals := mergeScratch(t.f)
					for r := lo; r < hi; r++ {
						t.mergeRun(level, r, samples, stride, buf, vals)
					}
					putMergeScratch(buf, vals)
				})
			}
		} else {
			for r := 0; r < numRuns; r++ {
				t.mergeRunParallel(level, r, samples, stride, workers)
			}
		}
		lsp.End()
		if rl >= n {
			break
		}
	}
	return t
}

// childRunOf returns child run c of a parent run whose children are the
// consecutive childLen-sized pieces of childData (the last piece may be
// short). Pure slicing — no allocation.
func childRunOf(childData []int32, childLen, c int) []int32 {
	start := c * childLen
	end := start + childLen
	if end > len(childData) {
		end = len(childData)
	}
	return childData[start:end]
}

// children returns the child runs of run r at the given level. Only used by
// invariant tests; the merge path indexes childRunOf directly to avoid the
// per-run slice-of-slices allocation.
func (t *tree) children(level, r int) [][]int32 {
	childLen := t.effLen[level-1]
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	childData := t.levels[level-1][runStart:runEnd]
	m := (runEnd - runStart + childLen - 1) / childLen
	kids := make([][]int32, m)
	for c := range kids {
		kids[c] = childRunOf(childData, childLen, c)
	}
	return kids
}

// mergeScratch acquires per-task merge state: a 6f-element buffer (cursors,
// run ends, tiebreaks, loser tree, winner init — sliced by mergePiece) and
// an f-element head-value array.
func mergeScratch(f int) (buf, vals []int32) {
	//lint:poollifecycle-ok mergeScratch is the acquire half of a documented pair; putMergeScratch returns both buffers
	return arena.Int32s.Get(6 * f), arena.Int32s.Get(f)
}

// putMergeScratch recycles buffers acquired by mergeScratch.
func putMergeScratch(buf, vals []int32) {
	arena.Int32s.Put(buf)
	arena.Int32s.Put(vals)
}

// mergeRun merges the children of run r at the given level into the level's
// output array, recording cascading samples. buf and vals come from
// mergeScratch.
func (t *tree) mergeRun(level, r int, samples []int32, stride int, buf, vals []int32) {
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	childLen := t.effLen[level-1]
	m := (runEnd - runStart + childLen - 1) / childLen
	var sampleRun []int32
	if samples != nil {
		sampleRun = samples[r*stride : (r+1)*stride]
	}
	t.mergePiece(t.levels[level][runStart:runEnd], t.levels[level-1][runStart:runEnd],
		childLen, m, nil, buf, vals, sampleRun, t.originRun(level, runStart, runEnd), 0, runEnd-runStart)
}

// originRun returns the origin stripe of the run spanning [runStart, runEnd)
// at the given level, or nil when the tree carries no stripes.
func (t *tree) originRun(level, runStart, runEnd int) []uint8 {
	if t.origin[level] == nil {
		return nil
	}
	return t.origin[level][runStart:runEnd]
}

// mergeRunParallel splits the merge of run r into `workers` output pieces;
// the per-child split positions for each piece boundary are found with a
// rank search over the value domain, so pieces merge independently
// (Francis et al. 1993, cited in §5.2).
func (t *tree) mergeRunParallel(level, r int, samples []int32, stride, workers int) {
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	length := runEnd - runStart
	childLen := t.effLen[level-1]
	childData := t.levels[level-1][runStart:runEnd]
	m := (length + childLen - 1) / childLen
	f := t.f
	pieces := workers
	if pieces > length/1024 {
		pieces = length / 1024
	}
	if pieces <= 1 {
		buf, vals := mergeScratch(f)
		t.mergeRun(level, r, samples, stride, buf, vals)
		putMergeScratch(buf, vals)
		return
	}
	// Flat split table: row p holds the per-child consumed counts at output
	// boundary length*p/pieces. Row 0 is all zeros; row `pieces` is the child
	// lengths.
	flat := arena.Int32s.Get((pieces + 1) * m)
	defer arena.Int32s.Put(flat)
	clear(flat[:m])
	last := flat[pieces*m : (pieces+1)*m]
	for c := 0; c < m; c++ {
		last[c] = i32(len(childRunOf(childData, childLen, c)))
	}
	for p := 1; p < pieces; p++ {
		findSplitInto(flat[p*m:(p+1)*m], childData, childLen, m, length*p/pieces)
	}
	var sampleRun []int32
	if samples != nil {
		sampleRun = samples[r*stride : (r+1)*stride]
	}
	out := t.levels[level][runStart:runEnd]
	origin := t.originRun(level, runStart, runEnd)
	parallel.ForEach(pieces, func(p int) {
		t0 := length * p / pieces
		t1 := length * (p + 1) / pieces
		if p == pieces-1 {
			t1 = length
		}
		buf, vals := mergeScratch(f)
		t.mergePiece(out, childData, childLen, m, flat[p*m:(p+1)*m],
			buf, vals, sampleRun, origin, t0, t1)
		putMergeScratch(buf, vals)
	})
}

// maxPayload is the exhausted-run sentinel of the merge. Comparisons break
// ties on the tiebreak array, where exhausted runs sort after every live
// run, so the merge stays stable whatever value a live run holds.
const maxPayload int32 = math.MaxInt32

// mergePiece merges outputs [t0, t1) of the run using a tournament (loser)
// tree of the m child runs, ordered by (value, child index) — the
// child-index tiebreak keeps the merge stable. Unlike a binary heap,
// advancing the winner costs exactly ⌈log₂ m⌉ comparisons along one root
// path, with no sift-down branching.
//
// split, when non-nil, gives the per-child consumed counts at output t0 (a
// row of mergeRunParallel's split table); nil means the piece starts at the
// beginning of every child.
//
// buf is mergeScratch's 6f-element scratch, laid out as cursor | end | tb |
// ltree | winners(2f): cursor[c]/end[c] are leaf c's absolute
// position and limit within childData, so refilling a leaf is two loads and
// a compare — no re-slicing. Node layout: leaves occupy virtual slots
// m..2m-1 (leaf c at m+c), internal nodes 1..m-1 hold the loser of their
// subtree's playoff, parent(i) = i/2. vals[c]/tb[c] are leaf c's head value
// and tiebreak; an exhausted leaf holds (maxPayload, m+c) so it loses
// against any live leaf, even one whose head equals maxPayload (live
// tiebreaks are < m).
//
// Samples are recorded at every output position that is a multiple of k,
// plus the final boundary; the merge loop runs in sample-free blocks so the
// hot path has no modulo.
//
// origin, when non-nil, is the run's merge-origin stripe (parallel to out):
// every path records the child each output was taken from, which under the
// stable tiebreak is the lowest-indexed child holding the minimum head.
func (t *tree) mergePiece(out, childData []int32, childLen, m int, split, buf, vals, sampleRun []int32, origin []uint8, t0, t1 int) {
	k, f := t.k, t.f
	if childLen == 1 && split == nil && t0 == 0 && t1 == len(out) && (sampleRun == nil || k >= t1) {
		// Leaf level: every child is a single element, so the merge is a
		// small stable sort. Sample rows, if any, are only the zero row
		// (already zeroed storage) and the full-run boundary row.
		copy(out, childData[:t1])
		if origin != nil {
			insertionSortOrigin(out, origin)
		} else {
			insertionSort(out)
		}
		if sampleRun != nil && t1%k == 0 {
			base := (t1 / k) * f
			for c := 0; c < m; c++ {
				sampleRun[base+c] = 1
			}
		}
		return
	}
	cursor := buf[:m]
	end := buf[f : f+m]
	for c := 0; c < m; c++ {
		start := c * childLen
		stop := start + childLen
		if stop > len(childData) {
			stop = len(childData)
		}
		cursor[c] = i32(start)
		if split != nil {
			cursor[c] += split[c]
		}
		end[c] = i32(stop)
	}
	writeSample := func(row int) {
		base := row * f
		for c := 0; c < m; c++ {
			sampleRun[base+c] = cursor[c] - i32(c*childLen)
		}
	}
	if m == 1 {
		// Single child: the run is already sorted, only samples to record;
		// every output comes from child 0.
		if origin != nil {
			clear(origin[t0:t1])
		}
		c0 := int(cursor[0])
		if sampleRun != nil {
			for p := t0; p < t1; p++ {
				if p%k == 0 {
					sampleRun[(p/k)*f] = i32(c0)
				}
				out[p] = childData[c0]
				c0++
			}
			if t1 == len(out) && t1%k == 0 {
				sampleRun[(t1/k)*f] = i32(c0)
			}
		} else {
			copy(out[t0:t1], childData[c0:c0+(t1-t0)])
		}
		return
	}
	tb := buf[2*f : 2*f+m]
	ltree := buf[3*f : 3*f+m]
	winners := buf[4*f : 4*f+2*m]
	for c := 0; c < m; c++ {
		if cursor[c] < end[c] {
			vals[c] = childData[cursor[c]]
			tb[c] = i32(c)
		} else {
			vals[c] = maxPayload
			tb[c] = i32(m + c)
		}
	}
	// Build the tournament bottom-up: winners[] is only needed during init.
	for c := 0; c < m; c++ {
		winners[m+c] = i32(c)
	}
	for i := m - 1; i >= 1; i-- {
		a, b := winners[2*i], winners[2*i+1]
		if vals[a] < vals[b] || (vals[a] == vals[b] && tb[a] < tb[b]) {
			winners[i], ltree[i] = a, b
		} else {
			winners[i], ltree[i] = b, a
		}
	}
	winner := winners[1]
	p := t0
	for p < t1 {
		stop := t1
		if sampleRun != nil {
			if p%k == 0 {
				writeSample(p / k)
			}
			if next := (p/k + 1) * k; next < stop {
				stop = next
			}
		}
		for ; p < stop; p++ {
			c := winner
			out[p] = vals[c]
			if origin != nil {
				origin[p] = u8(int(c))
			}
			pos := cursor[c] + 1
			cursor[c] = pos
			if pos < end[c] {
				vals[c] = childData[pos]
			} else {
				vals[c] = maxPayload
				tb[c] = i32(m) + c
			}
			// Replay the root path: the refilled leaf competes against the
			// stored losers; whoever loses stays, the winner moves up.
			w := c
			vw, tw := vals[w], tb[w]
			for i := (m + int(c)) >> 1; i >= 1; i >>= 1 {
				l := ltree[i]
				vl, tl := vals[l], tb[l]
				if vl < vw || (vl == vw && tl < tw) {
					ltree[i] = w
					w, vw, tw = l, vl, tl
				}
			}
			winner = w
		}
	}
	if sampleRun != nil && t1 == len(out) && t1%k == 0 {
		writeSample(t1 / k)
	}
}

// insertionSort stably sorts a small slice ascending; equal elements keep
// their original (child) order, matching the merge's tiebreak.
func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// insertionSortOrigin is insertionSort that also fills the leaf-level origin
// stripe: element i starts as child i, and origins move with their values.
func insertionSortOrigin(a []int32, origin []uint8) {
	for i := range a {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1], origin[j+1] = a[j], origin[j]
			j--
		}
		a[j+1], origin[j+1] = v, u8(i)
	}
}

// findSplitInto computes, for every child run, how many of its elements
// belong to the first `want` outputs of the stable merge, writing the counts
// into split (length m). It binary searches the value domain for the
// smallest value v such that at least `want` elements are <= v, then assigns
// the elements equal to v to children in child order (matching the merge's
// tiebreak).
func findSplitInto(split, childData []int32, childLen, m, want int) {
	clear(split)
	if want <= 0 {
		return
	}
	// Payloads are non-negative (Build's domain check), so the value range
	// of a run is bounded by the children's first and last elements and
	// hi-lo cannot overflow.
	lo, hi := maxPayload, int32(0)
	for c := 0; c < m; c++ {
		if kid := childRunOf(childData, childLen, c); len(kid) > 0 {
			lo, hi = min(lo, kid[0]), max(hi, kid[len(kid)-1])
		}
	}
	// Smallest v with countLessOrEqual(v) >= want.
	for lo < hi {
		mid := lo + (hi-lo)>>1
		cnt := 0
		for c := 0; c < m; c++ {
			cnt += upperBoundP(childRunOf(childData, childLen, c), mid)
		}
		if cnt >= want {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v := lo
	base := 0
	for c := 0; c < m; c++ {
		split[c] = i32(lowerBoundP(childRunOf(childData, childLen, c), v))
		base += int(split[c])
	}
	rem := want - base
	for c := 0; c < m && rem > 0; c++ {
		eq := upperBoundP(childRunOf(childData, childLen, c), v) - int(split[c])
		if eq > rem {
			eq = rem
		}
		split[c] += i32(eq)
		rem -= eq
	}
}

// lowerBoundP returns the number of elements of the sorted slice a that are
// strictly smaller than x.
func lowerBoundP(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundP returns the number of elements of the sorted slice a that are
// smaller than or equal to x.
func upperBoundP(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
