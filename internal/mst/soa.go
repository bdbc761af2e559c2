package mst

// Cache-conscious struct-of-arrays level layout (DESIGN.md §15).
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
// Because the padded sample stride and the origin stripes (a third stripe
// per merge level, one byte per element, see step.go) change the in-memory
// geometry, treeSig carries a layout component ("l3")
// so structure caches never mix layouts across versions.

// cacheLineBytes is the layout grain of the SoA stripes.
const cacheLineBytes = 64

// sampleStride returns the per-run sample-table stride, in int32 elements,
// for a level with run length rl under sampling distance k and fanout f:
// the dense (rl/k+1)·f slots padded up to a whole number of cache lines so
// consecutive runs keep their sample rows line-aligned.
func sampleStride(rl, k, f int) int {
	s := (rl/k + 1) * f
	const pad = cacheLineBytes / 4
	return (s + pad - 1) / pad * pad
}
