package mst

// Stats describes the storage of a built tree, matching the accounting of
// §5.1: the tree has ⌈log_f n⌉·n payload elements plus
// (⌈log_f n⌉−1)·n·f/k cascading pointers, so a larger fanout shrinks the
// payload exponentially while growing the pointer share linearly. On top of
// the paper's two terms every merge level of a full tree carries a
// one-byte-per-element origin stripe, ⌈log_f n⌉·n bytes in all, and a
// tree over keys in [0, n] keeps the top run's base positions (topPos,
// count_diff.go, select_diff.go), 4·n bytes. The sliding form keeps level 0,
// topPos and the threshold rank table below, 4·(n+2) bytes, and nothing
// else; the leaf-only form keeps level 0 alone:
//
//	Bytes = Elements·ElementBytes + Pointers·4 + OriginBytes + PositionBytes + RankBytes
type Stats struct {
	Levels         int // number of levels including level 0
	Elements       int // payload elements across all levels
	Pointers       int // cascading pointer entries across all levels
	ElementBytes   int // bytes per payload element (always 4, §5.1)
	OriginBytes    int // merge-origin stripe bytes across all levels
	PositionBytes  int // top-run base positions (topPos), 0 when absent
	RankBytes      int // the sliding form's threshold rank table (below), 0 on other forms
	Bytes          int // total bytes of payloads, pointers, origin stripes, positions and ranks
	Fanout         int
	SampleDistance int
}

// Stats reports the storage consumed by the tree.
func (t *Tree) Stats() Stats { return t.tr.stats() }

// MemBytes reports the resident bytes of the tree: Stats().Bytes plus the
// per-level geometry (sample stride and run length, a word each), which the
// §5.1 accounting leaves out — a few hundred bytes for one tree, but a
// structure holding many small trees (rangetree) charges it.
func (t *Tree) MemBytes() int64 {
	return int64(t.tr.stats().Bytes) + int64(8*(len(t.tr.stride)+len(t.tr.effLen)))
}

func (t *tree) stats() Stats {
	s := Stats{
		Levels:         len(t.levels),
		ElementBytes:   4,
		Fanout:         t.f,
		SampleDistance: t.k,
		PositionBytes:  4 * len(t.topPos),
		RankBytes:      4 * len(t.below),
	}
	for l, lv := range t.levels {
		s.Elements += len(lv)
		s.Pointers += len(t.samples[l])
		s.OriginBytes += len(t.origin[l])
	}
	s.Bytes = s.Elements*s.ElementBytes + s.Pointers*4 + s.OriginBytes + s.PositionBytes + s.RankBytes
	return s
}
