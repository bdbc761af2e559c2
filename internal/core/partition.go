package core

import (
	"cmp"
	"math"
	"sync"

	"holistic/internal/frame"
	"holistic/internal/preprocess"
)

// partition is one window partition's view of the input: its rows in window
// order, plus lazily computed shared preprocessing (peer groups, RANGE
// keys). Multiple window functions over the same partition share these, the
// duplicated-work avoidance of Kohn et al. and Cao et al. the paper builds
// on (§3.1).
type partition struct {
	t *Table
	w *WindowSpec
	// ord is the partition's ordinal in window order — stable across
	// queries with the same window signature, so it identifies the
	// partition in structure-cache keys.
	ord int
	// rows holds the global (original) row indices in window order.
	rows []int32

	// Under a delta view with caching active, partitions are identified in
	// cache keys by content and last-change epoch instead of ordinal (an
	// ordinal would alias different contents across epochs of one scope):
	// idKey renders the PARTITION BY values, stamp is the latest epoch a
	// mutation touched this partition (0: untouched this generation).
	stamped bool
	idKey   string
	stamp   int64

	peerOnce sync.Once
	peers    []int32 // dense peer-group ids by window ORDER BY

	rangeOnce sync.Once
	rangeKeys []int64 // oriented keys for RANGE arithmetic

	// sig, when non-empty, overrides windowSig(p.w) in structure-cache
	// keys. Shared-plan runs set it to the signature of the sort actually
	// executed (the group's refined order), so every window view over the
	// same sorted rows addresses the same cache entries — which is exactly
	// when the structures are interchangeable.
	sig string

	// fsort shares function-order sorts between functions with the same
	// effective ORDER BY — the duplicated-work avoidance of Kohn et al. /
	// Cao et al. (§3.1). The pointer is shared by every window view over
	// the same sorted rows, so the sharing crosses windows too.
	fsort *funcSortCache
}

// funcSortCache holds a partition's function-order sorts, keyed by the
// canonical ORDER BY rendering. One instance is shared by all window views
// over the same underlying sorted rows.
type funcSortCache struct {
	mu sync.Mutex
	m  map[string][]int32
}

// viewFor returns this partition's rows seen through another window spec:
// same sorted rows, same ordinal and delta stamps, same function-order sort
// cache, but the view's own lazily computed peer groups and RANGE keys
// (those depend on the window's ORDER BY). sig overrides the view's
// structure-cache identity with the executed sort's signature.
func (p *partition) viewFor(w *WindowSpec, sig string) *partition {
	return &partition{
		t: p.t, w: w, ord: p.ord, rows: p.rows,
		stamped: p.stamped, idKey: p.idKey, stamp: p.stamp,
		sig: sig, fsort: p.fsort,
	}
}

func (p *partition) len() int { return len(p.rows) }

// orig maps a partition-local position to the original row index.
func (p *partition) orig(local int) int { return int(p.rows[local]) }

// peerGroups lazily computes the dense peer-group numbering of the window
// ORDER BY (rows equal under every window sort key are peers). With no
// window ORDER BY, all rows are peers of each other.
func (p *partition) peerGroups() []int32 {
	p.peerOnce.Do(func() {
		n := p.len()
		p.peers = make([]int32, n)
		if len(p.w.OrderBy) == 0 {
			return // single group 0
		}
		cols := make([]*Column, len(p.w.OrderBy))
		for i, k := range p.w.OrderBy {
			cols[i] = p.t.Column(k.Column)
		}
		g := int32(0)
		for i := 1; i < n; i++ {
			same := true
			for _, c := range cols {
				if !c.equalAt(p.orig(i-1), p.orig(i)) {
					same = false
					break
				}
			}
			if !same {
				g++
			}
			p.peers[i] = g
		}
	})
	return p.peers
}

// rangeKeysOriented lazily computes the RANGE-mode key array: the single
// window ORDER BY column's values, oriented so the window order is
// ascending (descending keys are negated) and NULLs map to the saturating
// sentinel at the end they sort to. Validation guarantees the column is
// INT64.
func (p *partition) rangeKeysOriented() []int64 {
	p.rangeOnce.Do(func() {
		key := p.w.OrderBy[0]
		col := p.t.Column(key.Column)
		n := p.len()
		p.rangeKeys = make([]int64, n)
		for i := 0; i < n; i++ {
			o := p.orig(i)
			if col.IsNull(o) {
				// NULLs sort largest unless NullsSmallest; orientation flips
				// for descending keys.
				large := !key.NullsSmallest // sorts at the "large" end pre-orientation
				if key.Desc {
					large = !large
				}
				if large {
					p.rangeKeys[i] = math.MaxInt64
				} else {
					p.rangeKeys[i] = math.MinInt64
				}
				continue
			}
			v := col.Int64(o)
			if key.Desc {
				if v == math.MinInt64 {
					v = math.MaxInt64
				} else {
					v = -v
				}
			}
			p.rangeKeys[i] = v
		}
	})
	return p.rangeKeys
}

// frameComputer builds the frame computer for this partition under spec.
// Per-row offset expressions are rebased so they receive the ORIGINAL row
// index — SQL frame-bound expressions are evaluated against the tuple, not
// against its position in the sorted partition.
func (p *partition) frameComputer(spec frame.Spec) (*frame.Computer, error) {
	rebase := func(b frame.Bound) frame.Bound {
		if b.OffsetFn == nil {
			return b
		}
		fn := b.OffsetFn
		b.OffsetFn = func(local int) int64 { return fn(p.orig(local)) }
		return b
	}
	spec.Start = rebase(spec.Start)
	spec.End = rebase(spec.End)
	var keys []int64
	if spec.Mode == frame.Range && needsRangeKeys(spec) {
		keys = p.rangeKeysOriented()
	}
	var peers []int32
	if spec.Mode == frame.Groups || spec.Exclude == frame.ExcludeGroup || spec.Exclude == frame.ExcludeTies {
		peers = p.peerGroups()
	}
	return frame.NewComputer(spec, p.len(), keys, peers)
}

// funcKeysComparator compares partition-local positions by the
// function-level ORDER BY keys only (no tiebreak) — the peer relation.
func (p *partition) funcKeysComparator(f *FuncSpec) func(a, b int) int {
	keys := f.OrderBy
	if len(keys) == 0 {
		keys = p.w.OrderBy
	}
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = p.t.Column(k.Column)
	}
	return func(a, b int) int {
		oa, ob := p.orig(a), p.orig(b)
		for i, k := range keys {
			if c := k.compare(cols[i], oa, ob); c != 0 {
				return c
			}
		}
		return 0
	}
}

// funcComparator returns a total order over partition-local positions for
// the function-level ORDER BY (falling back to the window ORDER BY), with
// ties broken by the original row index so results are deterministic.
func (p *partition) funcComparator(f *FuncSpec) func(a, b int) int {
	keyCmp := p.funcKeysComparator(f)
	return func(a, b int) int {
		if c := keyCmp(a, b); c != 0 {
			return c
		}
		return cmp.Compare(p.orig(a), p.orig(b))
	}
}

// funcEqual returns the ORDER BY peer predicate over partition-local
// positions.
func (p *partition) funcEqual(f *FuncSpec) func(a, b int) bool {
	keyCmp := p.funcKeysComparator(f)
	return func(a, b int) bool { return keyCmp(a, b) == 0 }
}

// effectiveOrderKeys resolves a function's ORDER BY (with window fallback).
func (p *partition) effectiveOrderKeys(f *FuncSpec) []SortKey {
	if len(f.OrderBy) > 0 {
		return f.OrderBy
	}
	return p.w.OrderBy
}

// sortedByFuncOrder returns all partition rows sorted by the function's
// ORDER BY (original-index tiebreak). Functions sharing an ORDER BY share
// the sort through a per-partition cache. The returned slice is shared:
// callers must not modify it. The error is the options context's, when it
// ended mid-sort; nothing is cached then.
func (p *partition) sortedByFuncOrder(f *FuncSpec, opt Options) ([]int32, error) {
	key := orderSig(p, f)
	c := p.fsort
	c.mu.Lock()
	cached, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	var sorted []int32
	if cols := appendOrderCols(nil, p.t, p.effectiveOrderKeys(f)); radixSortable(cols) {
		var err error
		if sorted, err = sortByKeyWords(p.len(), p.rows, cols, opt); err != nil {
			return nil, err
		}
	} else {
		sorted = preprocess.SortIndices(p.len(), p.funcComparator(f))
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string][]int32)
	}
	c.m[key] = sorted
	c.mu.Unlock()
	return sorted, nil
}

// includeMask computes the function's inclusion mask over partition-local
// positions, or nil when every row is included. dropNullCol optionally names
// a column whose NULL rows are excluded (argument NULLs for aggregates,
// IGNORE NULLS for value functions, the percentile ORDER BY column). A
// non-nil mask comes from pooled scratch per opt — the caller must put it
// back (via Options.putBools) once consumed.
func (p *partition) includeMask(f *FuncSpec, dropNullCol string, opt Options) []bool {
	var filterCol, nullCol *Column
	if f.Filter != "" {
		filterCol = p.t.Column(f.Filter)
	}
	if dropNullCol != "" {
		c := p.t.Column(dropNullCol)
		if c != nil && c.HasNulls() {
			nullCol = c
		}
	}
	if filterCol == nil && nullCol == nil {
		return nil
	}
	mask := opt.getBools(p.len())
	for i := range mask {
		o := p.orig(i)
		keep := true
		if filterCol != nil && (!filterCol.Bool(o) || filterCol.IsNull(o)) {
			keep = false
		}
		if keep && nullCol != nil && nullCol.IsNull(o) {
			keep = false
		}
		mask[i] = keep
	}
	//lint:poollifecycle-ok documented hand-off: the caller owns the mask and puts it back via Options.putBools
	return mask
}

// remapFor wraps an inclusion mask in a Remap, or returns nil for the
// identity mapping.
func remapFor(mask []bool) *preprocess.Remap {
	if mask == nil {
		return nil
	}
	return preprocess.NewRemap(mask)
}

// filteredLen returns the number of rows the function actually sees.
func filteredLen(p *partition, r *preprocess.Remap) int {
	if r == nil {
		return p.len()
	}
	return r.Len()
}

// mapRanges translates frame ranges from the partition domain to the
// filtered domain. With a nil remap the input is returned unchanged.
func mapRanges(r *preprocess.Remap, ranges [][2]int, buf [][2]int) [][2]int {
	if r == nil {
		return ranges
	}
	for _, rg := range ranges {
		lo, hi := r.ToFiltered(rg[0]), r.ToFiltered(rg[1])
		if lo < hi {
			buf = append(buf, [2]int{lo, hi})
		}
	}
	return buf
}
