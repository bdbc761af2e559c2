package mst

import "unsafe"

// Cache-conscious struct-of-arrays level layout and offset-value-coded
// comparisons (PR 10; DESIGN.md §15).
//
// Layout. A tree level is three flat stripes: the payload run slab
// (levels[l]), the cascading sample slab (samples[l]) and the merge-origin
// stripe (origin[l]). All are arena-carved; this file makes the layout
// deliberate:
//
//   - every stripe starts on a 64-byte cache-line boundary
//     (arena.AllocAligned), so the first element of a level — and with the
//     power-of-two run lengths of the lower levels, the first element of
//     every run — never straddles a line;
//   - a run's per-sample pointer row (f consecutive int32 consumed-element
//     counts) is the unit one frontier step of the batched kernels loads.
//     The per-run sample stride is padded up to a whole number of cache
//     lines (sampleStride), so with the slab aligned, every sample row of
//     every run starts line-aligned: a frontier step touches exactly
//     ⌈4f/64⌉ lines — one line for f <= 16, two for the paper's f = 32 —
//     instead of up to one more when rows straddle lines.
//
// Offset-value coding (Do/Graefe/Naughton, "Efficient sorting, duplicate
// removal, grouping, and aggregation"). The payloads here are single
// non-negative integers, so the general (offset, value) pair over a
// multi-column key degenerates to two "columns": the high and the low
// 32-bit word. The code of a key is its high word — the value at the first
// possible offset — and two keys compare by their codes alone unless the
// codes tie, in which case the comparison falls through to the full key:
//
//   - run merges (mergePiece) keep the code of every leaf's head value next
//     to the head itself, so the tournament-tree comparisons resolve on the
//     cached 32-bit code pair and only touch the 64-bit keys on a code tie;
//   - the batched kernels' top-level probe searches run against a dedicated
//     uint32 code stripe of the top run (topCodes), halving the memory
//     touched by the cache-hostile O(log n) search; only tie steps load
//     the 64-bit key.
//
// Both apply to 64-bit payload trees only: for 32-bit payloads code and key
// coincide and the machinery would be pure overhead. Codes are a monotone
// projection of the keys, so every comparison outcome — and therefore every
// query answer and every merge order — is bit-identical to the uncoded
// path. Because the padded sample stride and the origin stripes (a third
// stripe per merge level, one byte per element, see step.go) change
// the serialized form and the in-memory geometry, treeSig carries a layout
// component ("l3") so structure caches never mix layouts across versions.

// cacheLineBytes is the layout grain of the SoA stripes.
const cacheLineBytes = 64

// ovcMinN is the smallest tree for which the top-level code stripe is
// materialized; below it the whole top run fits in a few lines anyway.
const ovcMinN = 4096

// sampleStride returns the per-run sample-table stride, in int32 elements,
// for a level with run length rl under sampling distance k and fanout f:
// the dense (rl/k+1)·f slots padded up to a whole number of cache lines so
// consecutive runs keep their sample rows line-aligned.
func sampleStride(rl, k, f int) int {
	s := (rl/k + 1) * f
	const pad = cacheLineBytes / 4
	return (s + pad - 1) / pad * pad
}

// codeOf is the offset-value code of a key: its high 32-bit word with the
// sign bit flipped, so unsigned code comparisons order exactly like signed
// comparisons of the keys' high words (keys may be negative — stream trees
// are built over raw column values). Equal codes require the full key. For
// 32-bit payloads every code is 0 and comparisons fall straight through to
// the key — the compiler folds the constant away.
func codeOf[P payload](v P) uint32 {
	if unsafe.Sizeof(v) == 8 {
		//lint:narrowconv-ok the >>32 bounds the operand to 32 bits, so the conversion is exact
		return uint32(uint64(int64(v))>>32) ^ 0x8000_0000
	}
	return 0
}

// finalizeCodes materializes the top-level code stripe of a built or
// deserialized tree. 64-bit payloads only; small trees skip it.
func finalizeCodes[P payload](t *tree[P]) {
	var z P
	if unsafe.Sizeof(z) != 8 || t.n < ovcMinN || len(t.levels) < 2 {
		return
	}
	top := t.levels[len(t.levels)-1]
	codes := make([]uint32, len(top))
	for i, v := range top {
		codes[i] = codeOf(v)
	}
	t.topCodes = codes
}

// lowerBoundFromOVC is lowerBoundFromP against a code stripe: every probe
// compares the 32-bit code first and touches the 64-bit key only on a code
// tie. codes must be the element-wise codeOf of a; the result is exactly
// lowerBoundP(a, x).
func lowerBoundFromOVC[P payload](a []P, codes []uint32, x P, g int) int {
	cx := codeOf(x)
	less := func(i int) bool {
		if c := codes[i]; c != cx {
			return c < cx
		}
		return a[i] < x
	}
	n := len(a)
	if g < 0 {
		g = 0
	} else if g > n {
		g = n
	}
	if g < n && less(g) {
		lb, hi := g, n
		for step := 1; ; step <<= 1 {
			j := lb + step
			if j >= n {
				break
			}
			if less(j) {
				lb = j
			} else {
				hi = j
				break
			}
		}
		lo := lb + 1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(mid) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	if g > 0 && !less(g-1) {
		ub := g - 1
		lo := 0
		for step := 1; ; step <<= 1 {
			j := ub - step
			if j < 0 {
				break
			}
			if !less(j) {
				ub = j
			} else {
				lo = j + 1
				break
			}
		}
		hi := ub
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(mid) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	return g
}

// topSearch locates threshold in the tree's top run, galloping from guess g
// and using the offset-value code stripe when the tree carries one.
func topSearch[P payload](t *tree[P], run0 []P, x P, g int) int {
	if t.topCodes != nil {
		return lowerBoundFromOVC(run0, t.topCodes, x, g)
	}
	return lowerBoundFromP(run0, x, g)
}
