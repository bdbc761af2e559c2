package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"holistic/internal/arena"
	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/preprocess"
	"holistic/internal/rangetree"
)

// filtered couples a partition with a function's inclusion mask (FILTER
// clause, argument-NULL dropping, IGNORE NULLS). All evaluation happens in
// the filtered domain; frame boundaries are remapped into it (§4.5, §4.7).
type filtered struct {
	p     *partition
	remap *preprocess.Remap // nil = identity
	k     int               // filtered length
}

func newFiltered(p *partition, f *FuncSpec, dropNullCol string) *filtered {
	mask := p.includeMask(f, dropNullCol)
	r := remapFor(mask)
	arena.Bools.Put(mask) // NewRemap copied what it needs
	return &filtered{p: p, remap: r, k: filteredLen(p, r)}
}

// keptOrder projects the all-rows function-order sort onto the filtered
// domain: the kept rows in function order, as filtered-domain indices — the
// permutation array of Figure 6, fl.k entries.
func keptOrder(fl *filtered, sortedAll []int32) []int32 {
	out := make([]int32, fl.k)
	w := 0
	for _, pos := range sortedAll {
		if fl.kept(int(pos)) {
			out[w] = i32(fl.toFiltered(int(pos)))
			w++
		}
	}
	return out[:w]
}

// local maps a filtered position to a partition-local position.
func (fl *filtered) local(j int) int {
	if fl.remap == nil {
		return j
	}
	return fl.remap.ToOriginal(j)
}

// orig maps a filtered position to the original row index.
func (fl *filtered) orig(j int) int { return fl.p.orig(fl.local(j)) }

// kept reports whether partition-local position i survived the filter.
func (fl *filtered) kept(i int) bool {
	return fl.remap == nil || fl.remap.Kept(i)
}

// toFiltered maps a partition-local boundary into the filtered domain.
func (fl *filtered) toFiltered(b int) int {
	if fl.remap == nil {
		return b
	}
	return fl.remap.ToFiltered(b)
}

// frameRanges fetches row's post-exclusion frame ranges remapped into the
// filtered domain.
func (fl *filtered) frameRanges(fc *frame.Computer, row int, scratch, out [][2]int) [][2]int {
	raw := fc.Ranges(row, scratch[:0])
	return mapRanges(fl.remap, raw, out[:0])
}

// evalMST dispatches a function to its merge-sort-tree evaluation.
func evalMST(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	switch f.Name {
	case CountStar, Count:
		return evalCounts(p, f, fc, out, opt)
	case Sum, Avg, Min, Max:
		return evalDistributive(p, f, fc, out, opt)
	case CountDistinct, SumDistinct, AvgDistinct:
		return evalDistinct(p, f, fc, out, opt)
	case Rank, PercentRank, RowNumber, CumeDist, Ntile:
		return evalRankFamily(p, f, fc, out, opt)
	case DenseRank:
		return evalDenseRank(p, f, fc, out, opt)
	case PercentileDisc, PercentileCont, NthValue, FirstValue, LastValue:
		return evalSelectFamily(p, f, fc, out, opt)
	case Lead, Lag:
		return evalLeadLag(p, f, fc, out, opt)
	}
	return fmt.Errorf("unhandled function %v", f.Name)
}

// evalCounts evaluates COUNT(*) and COUNT(x): pure frame-size arithmetic in
// the filtered domain — no index structure needed.
func evalCounts(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	drop := ""
	if f.Name == Count {
		drop = f.Arg
	}
	fl := newFiltered(p, f, drop)
	return forEachRow(p, opt, func(lo, hi int) {
		var scratch, mapped [3][2]int
		for i := lo; i < hi; i++ {
			total := 0
			for _, r := range fl.frameRanges(fc, i, scratch[:], mapped[:]) {
				total += r[1] - r[0]
			}
			out.setInt(p.orig(i), int64(total))
		}
	})
}

// buildDistinctInputs derives Algorithm 1's prevIdcs over the filtered rows'
// argument values plus the forward links used by the exclusion-hole
// correction. next[j] is the next occurrence of j's value in the filtered
// domain, with fl.k as the "none" sentinel. The two passes run under separate
// phase spans, matching Figure 14's phase split; the link pass polls the
// context.
func buildDistinctInputs(fl *filtered, f *FuncSpec, opt Options) (prev, next []int32, err error) {
	// Link value hashes, not values, so the link is the same typed pass
	// whatever the argument type (§6.7). The hash array is a pure temporary
	// and lives in pooled scratch; prev/next are retained by the cache and
	// are allocated fresh. Hashing is its own pass: gathering the values
	// in filtered order is a random read, and kept apart from the table's
	// random probes both overlap their cache misses.
	col := fl.p.t.Column(f.Arg)
	hashes := arena.Uint64s.Get(fl.k)
	defer arena.Uint64s.Put(hashes)
	opt.trace.Timed("preprocess: populate hashes", func() {
		for j := range hashes {
			hashes[j] = col.hashAt(fl.orig(j))
		}
	})
	// Equal hashes almost always mean equal values; the values themselves
	// are looked at only when a slot's hash matches, so a collision costs
	// time, never correctness. And where no collision can exist the values
	// are not looked at at all: mix64 is a bijection, so on a fixed-width
	// column two hashes are equal only for equal values or for a value that
	// hashes to the NULL sentinel — which takes a NULL in the column.
	var same func(a, b int) bool
	if col.kind == String || col.HasNulls() {
		same = func(a, b int) bool { return col.equalAt(fl.orig(a), fl.orig(b)) }
	}
	opt.trace.Timed("preprocess: prevIdcs", func() {
		prev, next, _, err = linkHashes(hashes, same, opt)
	})
	if err != nil {
		return nil, nil, err
	}
	return prev, next, opt.ctxErr()
}

// linkSeed keys the hashed link's slot index. mix64 is invertible, so INT64
// values with any chosen hashes exist, and FNV-colliding strings are easy to
// make: drawn once per process, the seed keeps a chosen set of values from
// piling onto one slot. No answer depends on it.
var linkSeed = rand.Uint64()

const (
	// linkPooledSlots is the table size every partition of 2^16 or more
	// rows starts at, nextpow2(2·min(k, 2^16)), and the largest one drawn
	// from the pool; tables that grow past it are plain allocations.
	linkPooledSlots = 1 << 17
	// linkPollRows is how many rows the link pass runs between context
	// polls.
	linkPollRows = 1 << 16
	// linkMul is the Fibonacci multiplier whose product's top bits pick a
	// slot.
	linkMul = 0x9e3779b97f4a7c15
)

// newLinks allocates k positions' occurrence links, none linked yet: prev
// uses the shifted representation of §5.1 (0: no previous occurrence, p+1
// otherwise), next uses k for "none".
func newLinks[K int32 | int64](k int) (prev, next []K) {
	prev, next = make([]K, k), make([]K, k)
	//lint:narrowconv-ok k counts a partition's rows, below Run's math.MaxInt32 row cap
	none := K(k)
	for j := range next {
		next[j] = none
	}
	return prev, next
}

// linkHashes is Algorithm 1 as one pass over the positions in order, with
// no sort: an open-addressing table maps each value's hash to its last
// position so far, so every position is linked to the previous and next
// occurrence of its value (see newLinks for the representation).
//
// With same == nil, equal hashes are equal values. Otherwise a slot whose
// hash matches is checked with same against its last position, and the
// probe goes on past it when the values differ. The table holds (hash,
// position+1) pairs, linearly probed from the top bits of (hash ^ linkSeed)
// · linkMul; it starts at nextpow2(2·min(k, 2^16)) slots and doubles past
// half full. probes counts the slots inspected, rehashing included. The
// context is polled every linkPollRows positions.
func linkHashes(hashes []uint64, same func(a, b int) bool, opt Options) (prev, next []int32, probes int, err error) {
	k := len(hashes)
	prev, next = newLinks[int32](k)
	if k == 0 {
		return prev, next, 0, nil
	}
	slots := 1 << bits.Len(uint(2*min(k, linkPooledSlots/2)-1))
	pooled := arena.Uint64s.Get(2 * slots)
	defer arena.Uint64s.Put(pooled)
	clear(pooled)
	table, shift, used := pooled, uint(65-bits.Len(uint(slots))), 0
	for j, h := range hashes {
		if j%linkPollRows == 0 {
			if err := opt.ctxErr(); err != nil {
				return nil, nil, probes, err
			}
		}
		mask := len(table)/2 - 1
		for i := int((h ^ linkSeed) * linkMul >> shift); ; i = (i + 1) & mask {
			probes++
			at := table[2*i+1]
			if at == 0 {
				table[2*i], table[2*i+1] = h, uint64(j)+1
				if used++; 2*used > len(table)/2 {
					table, shift = growLinkTable(table, shift, &probes)
				}
				break
			}
			if table[2*i] == h && (same == nil || same(int(at)-1, j)) {
				prev[j] = i32(int(at))
				next[at-1] = i32(j)
				table[2*i+1] = uint64(j) + 1
				break
			}
		}
	}
	return prev, next, probes, nil
}

// growLinkTable rehashes linkHashes' table into one of twice the slots,
// returning it and its index shift; it adds the slots it inspects to probes.
func growLinkTable(table []uint64, shift uint, probes *int) ([]uint64, uint) {
	grown, shift := make([]uint64, 2*len(table)), shift-1
	mask := len(table) - 1
	for c := 0; c < len(table); c += 2 {
		if table[c+1] == 0 {
			continue
		}
		i := int((table[c] ^ linkSeed) * linkMul >> shift)
		for *probes++; grown[2*i+1] != 0; *probes++ {
			i = (i + 1) & mask
		}
		grown[2*i], grown[2*i+1] = table[c], table[c+1]
	}
	return grown, shift
}

// linkRanks is Algorithm 1 on keys that are dense ranks in [0, distinct):
// the last occurrence of each rank is addressed directly, so the link needs
// neither a sort nor a hash. See newLinks for the representation.
func linkRanks(ranks []int64, distinct int) (prev, next []int64) {
	prev, next = newLinks[int64](len(ranks))
	last := arena.Int32s.Get(distinct) // position+1; 0: not seen yet
	defer arena.Int32s.Put(last)
	clear(last)
	for j, r := range ranks {
		if at := last[r]; at > 0 {
			prev[j] = int64(at)
			next[at-1] = int64(j)
		}
		last[r] = i32(j + 1)
	}
	return prev, next
}

// forEachFullyExcluded visits, for the frame decomposition `ranges` (sorted,
// disjoint, in the filtered domain), every position h that is the first
// occurrence within the full span [a, d) of a value whose occurrences inside
// [a, d) all fall into the exclusion holes. Those are exactly the values a
// whole-span distinct query counts but the real (holey) frame must not.
// The walk follows each value's occurrence chain and visits every hole
// position at most a constant number of times, so the cost is linear in the
// hole sizes (§4.7).
func forEachFullyExcluded[K int32 | int64](prev, next []K, ranges [][2]int, visit func(h int)) {
	if len(ranges) < 2 {
		return
	}
	a := ranges[0][0]
	d := ranges[len(ranges)-1][1]
	inKept := func(pos int) bool {
		for _, r := range ranges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	for g := 0; g+1 < len(ranges); g++ {
		holeLo, holeHi := ranges[g][1], ranges[g+1][0]
		for h := holeLo; h < holeHi; h++ {
			if int(prev[h]) >= a+1 {
				continue // not the first occurrence inside [a, d)
			}
			// Follow the chain: if it reaches a kept range before leaving
			// [a, d), the value survives.
			excluded := true
			for cur := h; ; {
				nx := int(next[cur])
				if nx >= d {
					break
				}
				if inKept(nx) {
					excluded = false
					break
				}
				cur = nx
			}
			if excluded {
				visit(h)
			}
		}
	}
}

// rowsBound is the widest position range a probe of a structure over k
// filtered rows can ask: k, or the function's frame width when the statement
// fixes a smaller one. FILTER and EXCLUDE only narrow a frame, and the
// distinct-hole correction's span [a, d) is the frame's own span.
func (o Options) rowsBound(k int) int {
	if o.frameBounded && o.frameRows < int64(k) {
		return int(o.frameRows)
	}
	return k
}

// endBuild closes a "build merge sort tree" phase span, recording the form
// the structure was built in and the bytes it owns: over an eval span's
// partitions the bytes add up and the form lists every form taken.
func endBuild(sp *obs.Span, form mst.Form, bytes int64) {
	sp.AddValue("form", form.String())
	sp.AddInt("bytes", bytes)
	sp.End()
}

// evalDistinct evaluates COUNT/SUM/AVG(DISTINCT x) with the annotated merge
// sort tree of §4.2/§4.3. The preprocessed occurrence arrays and the tree
// are cache-shared across queries: they depend only on the argument column,
// the filter and the tree options, never on the frame.
func evalDistinct(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	s := structureOf(f, nil, out.kind)
	s.Part = p.id
	fl := newFiltered(p, f, s.Drop)
	rows := opt.rowsBound(fl.k)
	form := s.sized(rows, opt)

	switch f.Name {
	case CountDistinct:
		st, err := cacheGet(opt, &s, func() (cachedDistinct, int64, error) {
			prev, next, err := buildDistinctInputs(fl, f, opt)
			if err != nil {
				return cachedDistinct{}, 0, err
			}
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.BuildForm(prev, opt.treeOptions(sp), form)
			if buildErr != nil {
				sp.End()
				return cachedDistinct{}, 0, buildErr
			}
			// The tree's level 0 is prev itself, so its bytes count prev.
			treeBytes := int64(tree.Stats().Bytes)
			endBuild(sp, tree.Form(), treeBytes)
			return cachedDistinct{prev: prev, next: next, tree: tree}, sliceBytes(next) + treeBytes, nil
		})
		if err == nil {
			err = st.tree.CheckRows(rows)
		}
		if err != nil {
			return err
		}
		return runBatched(p, opt, famCount, func(lo, hi int, agg *batchAgg) {
			distinctCountChunk(p, fl, fc, st.tree, st.prev, st.next, out, agg, lo, hi)
		})

	case SumDistinct:
		if out.kind == Int64 {
			return runSumDistinct(p, f, fc, out, opt, &s, fl, rows, form, 8,
				func(j int) int64 { return p.t.Column(f.Arg).Int64(fl.orig(j)) },
				func(a, b int64) int64 { return a + b },
				func(a, b int64) int64 { return a - b },
				func(row int, v int64) { out.setInt(row, v) })
		}
		return runSumDistinct(p, f, fc, out, opt, &s, fl, rows, form, 8,
			func(j int) float64 { return p.t.Column(f.Arg).Float64(fl.orig(j)) },
			func(a, b float64) float64 { return a + b },
			func(a, b float64) float64 { return a - b },
			func(row int, v float64) { out.setFloat(row, v) })

	case AvgDistinct:
		col := p.t.Column(f.Arg)
		return runSumDistinct(p, f, fc, out, opt, &s, fl, rows, form, 16,
			func(j int) avgState { return avgState{sum: col.Numeric(fl.orig(j)), n: 1} },
			func(a, b avgState) avgState { return avgState{a.sum + b.sum, a.n + b.n} },
			func(a, b avgState) avgState { return avgState{a.sum - b.sum, a.n - b.n} },
			func(row int, v avgState) { out.setFloat(row, v.sum/float64(v.n)) })
	}
	return fmt.Errorf("unhandled distinct function %v", f.Name)
}

type avgState struct {
	sum float64
	n   int64
}

// runSumDistinct evaluates SUM/AVG(DISTINCT) generically over the aggregate
// state type. Exclusion holes are corrected by subtracting the states of
// fully excluded values — SUM and AVG are invertible, so this stays exact.
// (The pure merge-only path of §4.3 covers continuous frames; frames with
// exclusion holes additionally use the inverse.) s is the tree's identity,
// whose state matches S; aggBytes is the state's size for budget accounting.
// rows bounds the ranges the tree is probed with; form is the form it is
// built in.
func runSumDistinct[S any](p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder,
	opt Options, s *Structure, fl *filtered, rows int, form mst.Form, aggBytes int,
	valueOf func(j int) S, add func(a, b S) S, sub func(a, b S) S, emit func(row int, v S)) error {
	st, err := cacheGet(opt, s, func() (cachedAgg[S], int64, error) {
		prev, next, err := buildDistinctInputs(fl, f, opt)
		if err != nil {
			return cachedAgg[S]{}, 0, err
		}
		values := make([]S, fl.k)
		for j := range values {
			values[j] = valueOf(j)
		}
		build := mst.BuildAnnotated[int32, S]
		if form == mst.Leaves {
			build = mst.BuildAnnotatedLeaves[int32, S]
		}
		sp := opt.trace.Phase("build merge sort tree")
		tree, buildErr := build(prev, values, add, opt.treeOptions(sp))
		if buildErr != nil {
			sp.End()
			return cachedAgg[S]{}, 0, buildErr
		}
		treeBytes := tree.MemBytes(aggBytes)
		endBuild(sp, form, treeBytes)
		bytes := sliceBytes(prev, next) + int64(aggBytes*len(values)) + treeBytes
		return cachedAgg[S]{prev: prev, next: next, values: values, tree: tree}, bytes, nil
	})
	if err == nil {
		err = st.tree.CheckRows(rows)
	}
	if err != nil {
		return err
	}
	prev, next, values, tree := st.prev, st.next, st.values, st.tree
	return runBatched(p, opt, famAgg, func(lo, hi int, agg *batchAgg) {
		distinctAggChunk(p, fl, fc, tree, prev, next, values, sub, emit, out, agg, lo, hi)
	})
}

// evalRankFamily evaluates RANK, PERCENT_RANK, ROW_NUMBER, CUME_DIST and
// NTILE via counting queries on a merge sort tree over preprocessed rank
// keys (§4.4, Figure 8).
func evalRankFamily(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	s := structureOf(f, p.w.OrderBy, out.kind)
	s.Part = p.id
	fl := newFiltered(p, f, s.Drop)
	rows := opt.rowsBound(fl.k)
	form := s.sized(rows, opt)

	// Thresholds must exist for every row (also filtered-out ones), so rank
	// keys are computed over the whole partition; the tree only holds the
	// kept rows.
	unique := s.Tag == tagRankUnique
	st, err := cacheGet(opt, &s,
		func() (cachedRank, int64, error) {
			m := p.len()
			sortedAll, err := p.sortedByFuncOrder(f, opt)
			if err != nil {
				return cachedRank{}, 0, err
			}
			var keysAll []int64
			if unique {
				// keptRowno: the number of kept rows sorted strictly before
				// each row — unique among kept rows, and a valid insertion
				// point for filtered-out rows.
				keysAll = make([]int64, m)
				keptBefore := int64(0)
				for _, pos := range sortedAll {
					keysAll[pos] = keptBefore
					if fl.kept(int(pos)) {
						keptBefore++
					}
				}
			} else {
				keysAll, _ = preprocess.DenseRanks(sortedAll, p.funcEqual(f))
			}
			// keysKept becomes the tree's level 0.
			keysKept := make([]int32, fl.k)
			for j := range keysKept {
				keysKept[j] = i32(int(keysAll[fl.local(j)]))
			}
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.BuildForm(keysKept, opt.treeOptions(sp), form)
			if buildErr != nil {
				sp.End()
				return cachedRank{}, 0, buildErr
			}
			treeBytes := int64(tree.Stats().Bytes)
			endBuild(sp, form, treeBytes)
			return cachedRank{keysAll: keysAll, tree: tree}, sliceBytes(keysAll) + treeBytes, nil
		})
	if err == nil {
		err = st.tree.CheckRows(rows)
	}
	if err != nil {
		return err
	}
	keysAll, tree := st.keysAll, st.tree

	return runBatched(p, opt, famRank, func(lo, hi int, agg *batchAgg) {
		rankChunk(p, f, fl, fc, tree, keysAll, out, agg, lo, hi)
	})
}

// ntileBucket returns the 1-based NTILE bucket for the row at 0-based
// position r of a frame with size rows split into b buckets: the first
// size%b buckets get one extra row, per the SQL standard.
func ntileBucket(r, size, b int64) int64 {
	if b > size {
		return r + 1
	}
	q, rem := size/b, size%b
	bigSpan := rem * (q + 1)
	if r < bigSpan {
		return r/(q+1) + 1
	}
	return rem + (r-bigSpan)/q + 1
}

// evalDenseRank evaluates the framed DENSE_RANK with the range tree of §4.4.
func evalDenseRank(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	s := structureOf(f, p.w.OrderBy, out.kind)
	s.Part = p.id
	fl := newFiltered(p, f, s.Drop)
	rows := opt.rowsBound(fl.k)
	form := s.sized(rows, opt)
	st, err := cacheGet(opt, &s,
		func() (cachedDense, int64, error) {
			sortedAll, err := p.sortedByFuncOrder(f, opt)
			if err != nil {
				return cachedDense{}, 0, err
			}
			ranksAll, distinct := preprocess.DenseRanks(sortedAll, p.funcEqual(f))
			// ranksKept, prevKept and nextKept are retained by the cache and
			// stay make-allocated.
			ranksKept := make([]int64, fl.k)
			for j := range ranksKept {
				ranksKept[j] = ranksAll[fl.local(j)]
			}
			prevKept, nextKept := linkRanks(ranksKept, distinct)
			// The leaf-only structure has no nodes: it scans ranksKept and
			// prevKept, which the entry already holds and charges.
			sp := opt.trace.Phase("build merge sort tree")
			var rt *rangetree.DenseRankTree
			var buildErr error
			if form == mst.Leaves {
				rt, buildErr = rangetree.NewLeaves(ranksKept, prevKept)
			} else {
				rt, buildErr = rangetree.New(ranksKept, prevKept, opt.treeOptions(sp))
			}
			if buildErr != nil {
				sp.End()
				return cachedDense{}, 0, buildErr
			}
			endBuild(sp, form, rt.MemBytes())
			return cachedDense{ranksAll: ranksAll, ranksKept: ranksKept, prevKept: prevKept, nextKept: nextKept, rt: rt},
				sliceBytes(ranksAll, ranksKept, prevKept, nextKept) + rt.MemBytes(), nil
		})
	if err == nil {
		err = st.rt.CheckRows(rows)
	}
	if err != nil {
		return err
	}
	ranksAll, ranksKept, prevKept, nextKept, rt := st.ranksAll, st.ranksKept, st.prevKept, st.nextKept, st.rt

	return runBatched(p, opt, famRank, func(lo, hi int, agg *batchAgg) {
		denseRankChunk(p, fl, fc, rt, ranksAll, ranksKept, prevKept, nextKept, out, agg, lo, hi)
	})
}

// evalSelectFamily evaluates percentiles and value functions via the
// permutation-array merge sort tree of §4.5 (Figures 6 and 7).
func evalSelectFamily(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	valueCol := p.t.Column(f.Arg)
	if f.Name == PercentileDisc || f.Name == PercentileCont {
		valueCol = p.t.Column(percentileValueColumn(f))
	}
	s := structureOf(f, p.w.OrderBy, out.kind)
	fl := newFiltered(p, f, s.Drop)
	tree, err := permutationTree(p, f, &s, fl, opt)
	if err != nil {
		return err
	}
	return runBatched(p, opt, famSelect, func(lo, hi int, agg *batchAgg) {
		selectChunk(p, f, fl, fc, tree, valueCol, out, agg, lo, hi)
	})
}

// permutationTree fetches the select family's structure s: the merge sort
// tree over the permutation of the kept rows in function order (§4.5,
// Figures 6 and 7). LEAD/LAG probe the same tree.
func permutationTree(p *partition, f *FuncSpec, s *Structure, fl *filtered, opt Options) (*mst.Tree, error) {
	s.Part = p.id
	form := s.sized(fl.k, opt)
	st, err := cacheGet(opt, s, func() (cachedSelect, int64, error) {
		sortedAll, err := p.sortedByFuncOrder(f, opt)
		if err != nil {
			return cachedSelect{}, 0, err
		}
		// The permutation becomes the tree's level 0.
		sp := opt.trace.Phase("build merge sort tree")
		tree, buildErr := mst.BuildForm(keptOrder(fl, sortedAll), opt.treeOptions(sp), form)
		if buildErr != nil {
			sp.End()
			return cachedSelect{}, 0, buildErr
		}
		treeBytes := int64(tree.Stats().Bytes)
		endBuild(sp, form, treeBytes)
		return cachedSelect{tree: tree}, treeBytes, nil
	})
	return st.tree, err
}

// percentileDiscIndex is PERCENTILE_DISC's selection rule: the first value
// whose cumulative distribution is >= p, i.e. 0-based index ceil(p·size)-1.
func percentileDiscIndex(p float64, size int) int {
	k := int(math.Ceil(p*float64(size))) - 1
	if k < 0 {
		k = 0
	}
	if k >= size {
		k = size - 1
	}
	return k
}

// evalLeadLag evaluates framed LEAD/LAG with an independent ORDER BY (§4.6):
// the row's own row number inside the frame (counting queries on the
// permutation tree), offset, then a selection query for the adjusted
// position, both batched per chunk (leadLagChunk).
func evalLeadLag(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	valueCol := p.t.Column(f.Arg)
	s := structureOf(f, p.w.OrderBy, out.kind)
	fl := newFiltered(p, f, s.Drop)
	tree, err := permutationTree(p, f, &s, fl, opt)
	if err != nil {
		return err
	}
	rs := Structure{Part: p.id, Tag: tagRowno, Order: s.Order, Filter: s.Filter, Drop: s.Drop}
	st, err := cacheGet(opt, &rs, func() (cachedRowno, int64, error) {
		sortedAll, err := p.sortedByFuncOrder(f, opt)
		if err != nil {
			return cachedRowno{}, 0, err
		}
		// keptRowno: insertion position of every partition row among the
		// kept rows in function order.
		keptRowno := make([]int32, p.len())
		keptBefore := int32(0)
		for _, pos := range sortedAll {
			keptRowno[pos] = keptBefore
			if fl.kept(int(pos)) {
				keptBefore++
			}
		}
		return cachedRowno{keptRowno: keptRowno}, sliceBytes(keptRowno), nil
	})
	if err != nil {
		return err
	}
	keptRowno := st.keptRowno

	off := f.N
	if off == 0 {
		off = 1
	}
	if f.Name == Lag {
		off = -off
	}

	return runBatched(p, opt, famLeadLag, func(lo, hi int, agg *batchAgg) {
		leadLagChunk(p, fl, fc, tree, keptRowno, valueCol, off, out, agg, lo, hi)
	})
}
