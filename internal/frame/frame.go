// Package frame implements SQL window frame semantics (§2.2, §4.7): ROWS,
// RANGE and GROUPS framing modes, UNBOUNDED/offset/CURRENT ROW bounds with
// constant or per-row (non-constant, possibly non-monotonic) offsets, and
// the frame exclusion clauses, which break a continuous frame into at most
// three continuous ranges.
//
// A Computer is built once per partition from what its Spec needs: the
// partition's sorted order keys for RANGE offsets (NeedsKeys), its
// peer-group numbering for every other bound that names peers (NeedsPeers).
// Bounds then yields each row's continuous frame and Ranges the
// post-exclusion decomposition. All positions are partition-relative and
// half-open.
package frame

import (
	"fmt"

	"holistic/internal/sortutil"
)

// Mode selects how frame offsets are interpreted.
type Mode int

const (
	// Rows counts physical rows.
	Rows Mode = iota
	// Range offsets the current row's order key by a value delta, which
	// needs a single INT64 ORDER BY key; its CURRENT ROW is the current
	// row's peer group, whatever the ORDER BY.
	Range
	// Groups counts peer groups (SQL:2011).
	Groups
)

func (m Mode) String() string {
	switch m {
	case Rows:
		return "ROWS"
	case Range:
		return "RANGE"
	case Groups:
		return "GROUPS"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// BoundType is the kind of a frame bound.
type BoundType int

const (
	// UnboundedPreceding starts the frame at the partition start.
	UnboundedPreceding BoundType = iota
	// Preceding offsets backwards from the current row.
	Preceding
	// CurrentRow bounds the frame at the current row (including peers in
	// RANGE/GROUPS mode, per the SQL standard).
	CurrentRow
	// Following offsets forwards from the current row.
	Following
	// UnboundedFollowing ends the frame at the partition end.
	UnboundedFollowing
)

func (b BoundType) String() string {
	switch b {
	case UnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case Preceding:
		return "PRECEDING"
	case CurrentRow:
		return "CURRENT ROW"
	case Following:
		return "FOLLOWING"
	case UnboundedFollowing:
		return "UNBOUNDED FOLLOWING"
	}
	return fmt.Sprintf("BoundType(%d)", int(b))
}

// Bound is one frame boundary. Offset applies to Preceding/Following bounds;
// OffsetFn, when non-nil, supplies a per-row offset instead — SQL allows
// arbitrary expressions as frame offsets (§2.2's stock limit order example),
// which makes frames non-monotonic.
type Bound struct {
	Type     BoundType
	Offset   int64
	OffsetFn func(row int) int64
}

// Exclusion is the SQL:2011 frame exclusion clause.
type Exclusion int

const (
	// ExcludeNoOthers keeps the frame as is (the default).
	ExcludeNoOthers Exclusion = iota
	// ExcludeCurrentRow removes the current row.
	ExcludeCurrentRow
	// ExcludeGroup removes the current row and all its peers.
	ExcludeGroup
	// ExcludeTies removes the current row's peers but keeps the row itself.
	ExcludeTies
)

// Spec is a complete window frame specification.
type Spec struct {
	Mode    Mode
	Start   Bound
	End     Bound
	Exclude Exclusion
}

// Default is SQL's default frame: RANGE BETWEEN UNBOUNDED PRECEDING AND
// CURRENT ROW.
func Default() Spec {
	return Spec{Mode: Range, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: CurrentRow}}
}

// WholePartition is ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
// FOLLOWING.
func WholePartition() Spec {
	return Spec{Mode: Rows, Start: Bound{Type: UnboundedPreceding}, End: Bound{Type: UnboundedFollowing}}
}

// DefaultFor is the frame SQL gives a window with no frame clause: Default
// when the window has an ORDER BY, the whole partition when it has none.
func DefaultFor(ordered bool) Spec {
	if ordered {
		return Default()
	}
	return WholePartition()
}

// Validate checks the static parts of the specification.
func (s Spec) Validate() error {
	if s.Start.Type == UnboundedFollowing {
		return fmt.Errorf("frame: start bound cannot be UNBOUNDED FOLLOWING")
	}
	if s.End.Type == UnboundedPreceding {
		return fmt.Errorf("frame: end bound cannot be UNBOUNDED PRECEDING")
	}
	for _, b := range []Bound{s.Start, s.End} {
		if (b.Type == Preceding || b.Type == Following) && b.OffsetFn == nil && b.Offset < 0 {
			return fmt.Errorf("frame: negative %v offset %d", b.Type, b.Offset)
		}
	}
	return nil
}

// MaxRows returns the widest position range any row's frame can span, and
// true, when the specification fixes it: a ROWS frame with constant offsets,
// whose width is its end offset minus its start offset plus one — P + F + 1
// for P PRECEDING AND F FOLLOWING — saturating at math.MaxInt64, and 0 for a
// frame that is always empty. It returns false when the width depends on the
// data or the row: RANGE and GROUPS frames, UNBOUNDED bounds and per-row
// offsets. Exclusion only removes rows from a frame, so it does not enter
// the bound.
func (s Spec) MaxRows() (int64, bool) {
	if s.Mode != Rows {
		return 0, false
	}
	lo, okLo := s.Start.rowOffset()
	hi, okHi := s.End.rowOffset()
	if !okLo || !okHi {
		return 0, false
	}
	return max(satAdd(satSub(hi, lo), 1), 0), true
}

// rowOffset is a constant ROWS bound's signed offset from the current row.
func (b Bound) rowOffset() (int64, bool) {
	if b.OffsetFn != nil || b.Offset < 0 {
		return 0, false
	}
	switch b.Type {
	case Preceding:
		return -b.Offset, true
	case CurrentRow:
		return 0, true
	case Following:
		return b.Offset, true
	}
	return 0, false
}

// Keys are the order keys a RANGE offset bound measures, for the partition
// positions At to At+len(Values): the rows whose key is not NULL, oriented
// so that the values ascend (a DESC key v as ^v, which reverses the order
// and keeps distances). The partition's NULL rows lie all before or all
// after them. A NULL is at no distance from another NULL and farther than
// any offset from every number: a NULL row's offset bound stops at the edge
// of the NULL rows, and a number's offset bound never reaches one.
type Keys struct {
	At     int
	Values []int64
}

// NeedsKeys reports whether a Computer for s needs the partition's order
// keys: a RANGE frame with an offset bound.
func (s Spec) NeedsKeys() bool {
	return s.Mode == Range && (s.Start.hasOffset() || s.End.hasOffset())
}

// NeedsPeers reports whether a Computer for s needs the partition's peer
// groups: a RANGE or GROUPS frame with a CURRENT ROW bound, a GROUPS frame
// with an offset bound, or EXCLUDE GROUP or TIES.
func (s Spec) NeedsPeers() bool {
	switch {
	case s.Exclude == ExcludeGroup || s.Exclude == ExcludeTies:
		return true
	case s.Mode == Range:
		return s.Start.Type == CurrentRow || s.End.Type == CurrentRow
	case s.Mode == Groups:
		return s.Start.Type != UnboundedPreceding || s.End.Type != UnboundedFollowing
	}
	return false
}

func (b Bound) hasOffset() bool { return b.Type == Preceding || b.Type == Following }

// Computer evaluates a frame specification against one partition.
type Computer struct {
	spec Spec
	n    int
	// keys are the partition's order keys, when the spec needs them.
	keys Keys
	// groups[i] is the dense peer-group id of row i (non-decreasing), and
	// group g spans the rows [edges[g], edges[g+1]); both only when the spec
	// needs peer groups.
	groups []int32
	edges  []int32
}

// NewComputer builds a frame computer for a partition of n rows. It takes
// the order keys when spec.NeedsKeys and the dense peer-group id of every
// row when spec.NeedsPeers; it ignores either when the spec does not need
// it.
func NewComputer(spec Spec, n int, keys *Keys, peerGroups []int32) (*Computer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Computer{spec: spec, n: n}
	if spec.NeedsKeys() {
		if keys == nil || keys.At < 0 || keys.At+len(keys.Values) > n {
			return nil, fmt.Errorf("frame: RANGE offsets need the order keys of %d rows", n)
		}
		c.keys = *keys
	}
	if spec.NeedsPeers() {
		if len(peerGroups) != n {
			return nil, fmt.Errorf("frame: %d peer groups for %d rows", len(peerGroups), n)
		}
		numGroups := 0
		if n > 0 {
			numGroups = int(peerGroups[n-1]) + 1
		}
		c.groups = peerGroups
		c.edges = make([]int32, numGroups+1)
		for i := n - 1; i >= 0; i-- {
			c.edges[peerGroups[i]] = int32(i)
		}
		c.edges[numGroups] = int32(n)
	}
	return c, nil
}

// offset is b's offset for row; a per-row offset below 0 counts as 0.
func (b Bound) offset(row int) int64 {
	if b.OffsetFn == nil {
		return b.Offset
	}
	return max(b.OffsetFn(row), 0)
}

// shifted moves pos, in [0, limit], by b's offset for row — back for
// PRECEDING, forward for FOLLOWING, not at all for CURRENT ROW — and clamps
// the result to [-1, limit].
func (b *Bound) shifted(pos, row, limit int) int {
	switch b.Type {
	case Preceding:
		return pos - int(min(b.offset(row), int64(pos)+1))
	case Following:
		return pos + int(min(b.offset(row), int64(limit-pos)))
	}
	return pos
}

// Bounds returns row's continuous frame [lo, hi) before exclusion, clamped
// to [0, n). An empty frame yields lo == hi.
func (c *Computer) Bounds(row int) (lo, hi int) {
	lo = min(max(c.startBound(row), 0), c.n)
	hi = min(max(c.endBound(row), lo), c.n)
	return lo, hi
}

// startBound is the first row of row's frame. GROUPS bounds and RANGE's
// CURRENT ROW start at a peer group's first row.
func (c *Computer) startBound(row int) int {
	b := &c.spec.Start
	switch {
	case b.Type == UnboundedPreceding:
		return 0
	case c.spec.Mode == Rows:
		return b.shifted(row, row, c.n)
	case c.spec.Mode == Range && b.Type != CurrentRow:
		return c.keyBound(row, b, true)
	}
	g := b.shifted(int(c.groups[row]), row, len(c.edges)-1)
	return int(c.edges[max(g, 0)])
}

// endBound is one past the last row of row's frame. GROUPS bounds and
// RANGE's CURRENT ROW end at a peer group's last row.
func (c *Computer) endBound(row int) int {
	b := &c.spec.End
	switch {
	case b.Type == UnboundedFollowing:
		return c.n
	case c.spec.Mode == Rows:
		return b.shifted(row, row, c.n) + 1
	case c.spec.Mode == Range && b.Type != CurrentRow:
		return c.keyBound(row, b, false)
	}
	g := b.shifted(int(c.groups[row]), row, len(c.edges)-1)
	return int(c.edges[min(g, len(c.edges)-2)+1])
}

// keyBound is where the RANGE offset bound b falls for row: for a start
// bound the first row whose key reaches the current key moved by the
// offset, for an end bound one past the last such row. A NULL row's bound is
// the edge of the NULL rows; a moved key that leaves int64 lies beyond
// every key.
func (c *Computer) keyBound(row int, b *Bound, start bool) int {
	at, keys := c.keys.At, c.keys.Values
	end := at + len(keys)
	if row < at || row >= end {
		lo, hi := 0, at
		if row >= end {
			lo, hi = end, c.n
		}
		if start {
			return lo
		}
		return hi
	}
	v, off := keys[row-at], b.offset(row)
	if b.Type == Preceding {
		off = -off
	}
	switch target := v + off; {
	case off > 0 && target < v:
		return end
	case off < 0 && target > v:
		return at
	case start:
		return at + sortutil.LowerBound(keys, target)
	default:
		return at + sortutil.UpperBound(keys, target)
	}
}

// peerRange returns the peer group [lo, hi) of row.
func (c *Computer) peerRange(row int) (int, int) {
	g := c.groups[row]
	return int(c.edges[g]), int(c.edges[g+1])
}

// Ranges appends row's frame, after applying the exclusion clause, to buf as
// up to three continuous [lo, hi) ranges and returns the result. Empty
// ranges are omitted.
func (c *Computer) Ranges(row int, buf [][2]int) [][2]int {
	lo, hi := c.Bounds(row)
	if lo >= hi {
		return buf
	}
	var cutLo, cutHi int // range to cut out
	keepSelf := false
	switch c.spec.Exclude {
	case ExcludeNoOthers:
		return append(buf, [2]int{lo, hi})
	case ExcludeCurrentRow:
		cutLo, cutHi = row, row+1
	case ExcludeGroup:
		cutLo, cutHi = c.peerRange(row)
	case ExcludeTies:
		cutLo, cutHi = c.peerRange(row)
		keepSelf = true
	}
	if cutHi <= lo || cutLo >= hi {
		return append(buf, [2]int{lo, hi})
	}
	if cutLo < lo {
		cutLo = lo
	}
	if cutHi > hi {
		cutHi = hi
	}
	if lo < cutLo {
		buf = append(buf, [2]int{lo, cutLo})
	}
	if keepSelf && row >= cutLo && row < cutHi {
		buf = append(buf, [2]int{row, row + 1})
	}
	if cutHi < hi {
		buf = append(buf, [2]int{cutHi, hi})
	}
	return buf
}

// satAdd and satSub saturate on overflow, so a bound far beyond the
// partition stays beyond it.
func satAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return int64(^uint64(0) >> 1)
	}
	if b < 0 && s > a {
		return -int64(^uint64(0)>>1) - 1
	}
	return s
}

func satSub(a, b int64) int64 {
	return satAdd(a, -b)
}
