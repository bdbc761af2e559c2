package mst

// i32 is the audited narrowing funnel for tree-bounded quantities: element
// indices, ranks, run numbers, cursor positions, level numbers and fanout
// multiples. Build rejects inputs of math.MaxInt32 or more elements, and the
// batch kernels reject query batches of that size, so every such quantity
// fits int32 exactly. Narrowing conversions outside this funnel are flagged
// by the narrowconv analyzer; keep new ones routed through here (or prove a
// local bound).
//
//lint:narrowconv-entry every in-tree index, rank and count is bounded by Build's math.MaxInt32 element cap and the batch kernels' query cap
func i32(v int) int32 { return int32(v) }

// maxOriginFanout is the largest fanout whose child indices fit the one-byte
// entries of the merge-origin stripes; Options.validate rejects any above it.
const maxOriginFanout = 256

// u8 is the audited narrowing funnel for merge-origin stripe entries: the
// index of a child run within its parent run. A run has at most f children
// and Options.validate caps f at maxOriginFanout, so every child index
// written to a stripe fits uint8 exactly.
//
//lint:narrowconv-entry child indices are < f and Options.validate rejects f > maxOriginFanout (256)
func u8(v int) uint8 { return uint8(v) }
