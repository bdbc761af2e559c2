package core

import (
	"sync"

	"holistic/internal/arena"
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
	// rows holds the global (original) row indices in window order.
	rows []int32
	// id names the partition's content (keyPartitions) and leads every
	// structure key of the partition (Structure.Part): the executed sort's
	// identity — the group's refined order in a shared-plan run, so every
	// window view over the same sorted rows addresses the same entries,
	// which is exactly when the structures are interchangeable — then the
	// partition's PARTITION BY values and its stamp (newest row epoch, row
	// count).
	id string

	peerOnce sync.Once
	peers    []int32 // dense peer-group ids by window ORDER BY

	keysOnce sync.Once
	keys     frame.Keys // oriented order keys for RANGE offsets

	// fsort shares function-order sorts between functions with the same
	// effective ORDER BY — the duplicated-work avoidance of Kohn et al. /
	// Cao et al. (§3.1). The pointer is shared by every window view over
	// the same sorted rows, so the sharing crosses windows too.
	fsort *funcSortCache
}

// funcSortCache holds a partition's function-order sorts, keyed by the
// rendered ORDER BY. One instance is shared by all window views over the
// same underlying sorted rows.
type funcSortCache struct {
	mu sync.Mutex
	m  map[string][]int32
}

// viewFor returns this partition's rows seen through another window spec:
// same sorted rows, same id, same function-order sort cache, but the view's
// own lazily computed peer groups and RANGE keys (those depend on the
// window's ORDER BY).
func (p *partition) viewFor(w *WindowSpec) *partition {
	return &partition{t: p.t, w: w, rows: p.rows, id: p.id, fsort: p.fsort}
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

// orderKeys lazily computes the keys RANGE offsets measure: the single
// window ORDER BY column's non-NULL values, which sort contiguously, in
// window order and oriented so that they ascend (a DESC key v as ^v, which
// reverses the order and keeps distances). Validation guarantees the column
// is INT64.
func (p *partition) orderKeys() *frame.Keys {
	p.keysOnce.Do(func() {
		col := p.t.Column(p.w.OrderBy[0].Column)
		n := p.len()
		at := 0
		for at < n && col.IsNull(p.orig(at)) {
			at++
		}
		end := at
		for end < n && !col.IsNull(p.orig(end)) {
			end++
		}
		p.keys.At, p.keys.Values = at, make([]int64, end-at)
		for i := range p.keys.Values {
			v := col.Int64(p.orig(at + i))
			if p.w.OrderBy[0].Desc {
				v = ^v
			}
			p.keys.Values[i] = v
		}
	})
	return &p.keys
}

// frameComputer builds the frame computer for this partition under spec,
// from the inputs spec says it needs. Per-row offset expressions are
// rebased so they receive the ORIGINAL row index — SQL frame-bound
// expressions are evaluated against the tuple, not against its position in
// the sorted partition.
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
	var keys *frame.Keys
	if spec.NeedsKeys() {
		keys = p.orderKeys()
	}
	var peers []int32
	if spec.NeedsPeers() {
		peers = p.peerGroups()
	}
	return frame.NewComputer(spec, p.len(), keys, peers)
}

// funcKeysComparator compares partition-local positions by the
// function-level ORDER BY keys only (no tiebreak) — the peer relation.
func (p *partition) funcKeysComparator(f *FuncSpec) func(a, b int) int {
	keys := p.effectiveOrderKeys(f)
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

// funcEqual returns the ORDER BY peer predicate over partition-local
// positions.
func (p *partition) funcEqual(f *FuncSpec) func(a, b int) bool {
	keyCmp := p.funcKeysComparator(f)
	return func(a, b int) bool { return keyCmp(a, b) == 0 }
}

// effectiveOrderKeys resolves a function's order (funcOrder) under the
// partition's window.
func (p *partition) effectiveOrderKeys(f *FuncSpec) []SortKey { return funcOrder(f, p.w.OrderBy) }

// sortedByFuncOrder returns all partition rows sorted by the function's
// ORDER BY (original-index tiebreak). Functions sharing an ORDER BY share
// the sort through a per-partition cache. The returned slice is shared:
// callers must not modify it. The error is the options context's, when it
// ended mid-sort; nothing is cached then.
func (p *partition) sortedByFuncOrder(f *FuncSpec, opt Options) ([]int32, error) {
	order := p.effectiveOrderKeys(f)
	key := string(AppendOrder(nil, order))
	c := p.fsort
	c.mu.Lock()
	cached, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	sorted, err := sortRows(p.len(), p.rows, appendOrderCols(nil, p.t, order), opt)
	if err != nil {
		return nil, err
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
// non-nil mask comes from arena.Bools — the caller must put it back once
// consumed.
func (p *partition) includeMask(f *FuncSpec, dropNullCol string) []bool {
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
	mask := arena.Bools.Get(p.len())
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
	//lint:poollifecycle-ok documented hand-off: the caller owns the mask and puts it back into arena.Bools
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
