// Package frame implements SQL window frame semantics (§2.2, §4.7): ROWS,
// RANGE and GROUPS framing modes, UNBOUNDED/offset/CURRENT ROW bounds with
// constant or per-row (non-constant, possibly non-monotonic) offsets, and
// the frame exclusion clauses, which break a continuous frame into at most
// three continuous ranges.
//
// A Computer is built once per partition from the partition's sorted order
// keys and peer-group numbering; Bounds then yields each row's continuous
// frame and Ranges the post-exclusion decomposition. All positions are
// partition-relative and half-open.
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
	// Range offsets the current row's order key by a value delta; requires
	// a single numeric ORDER BY key.
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

// Computer evaluates a frame specification against one partition.
type Computer struct {
	spec Spec
	n    int
	// keys are the partition's order key values, oriented so the partition
	// order is ascending. Required for Range mode.
	keys []int64
	// groups[i] is the dense peer-group id of row i (non-decreasing).
	// Required for Groups mode and the GROUP/TIES exclusions; when nil,
	// every row forms its own peer group.
	groups []int32
	// groupStart[g] is the first row of peer group g; groupEnd[g] one past
	// its last row. Derived lazily from groups.
	groupStart, groupEnd []int32
}

// NewComputer builds a frame computer for a partition of n rows. orderKeys
// may be nil unless Mode is Range; peerGroups may be nil (each row its own
// peer) unless Mode is Groups or an exclusion other than NO OTHERS /
// CURRENT ROW is requested together with duplicate order keys.
func NewComputer(spec Spec, n int, orderKeys []int64, peerGroups []int32) (*Computer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Mode == Range && orderKeys == nil && needsKeys(spec) {
		return nil, fmt.Errorf("frame: RANGE mode requires order keys")
	}
	if spec.Mode == Groups && peerGroups == nil {
		return nil, fmt.Errorf("frame: GROUPS mode requires peer groups")
	}
	c := &Computer{spec: spec, n: n, keys: orderKeys, groups: peerGroups}
	if peerGroups != nil {
		if len(peerGroups) != n {
			return nil, fmt.Errorf("frame: %d peer groups for %d rows", len(peerGroups), n)
		}
		numGroups := 0
		if n > 0 {
			numGroups = int(peerGroups[n-1]) + 1
		}
		c.groupStart = make([]int32, numGroups)
		c.groupEnd = make([]int32, numGroups)
		for i := 0; i < n; i++ {
			g := peerGroups[i]
			if i == 0 || peerGroups[i-1] != g {
				c.groupStart[g] = int32(i)
			}
			c.groupEnd[g] = int32(i + 1)
		}
	}
	if spec.Mode == Range && orderKeys != nil && len(orderKeys) != n {
		return nil, fmt.Errorf("frame: %d order keys for %d rows", len(orderKeys), n)
	}
	return c, nil
}

// needsKeys reports whether any bound of a RANGE spec actually needs key
// arithmetic (offset bounds) or peer lookup (current row).
func needsKeys(spec Spec) bool {
	for _, b := range []Bound{spec.Start, spec.End} {
		switch b.Type {
		case Preceding, Following, CurrentRow:
			return true
		}
	}
	return false
}

func (b Bound) offset(row int) int64 {
	if b.OffsetFn != nil {
		if off := b.OffsetFn(row); off > 0 {
			return off
		}
		return 0
	}
	return b.Offset
}

// Bounds returns row's continuous frame [lo, hi) before exclusion, clamped
// to [0, n). An empty frame yields lo == hi.
func (c *Computer) Bounds(row int) (lo, hi int) {
	lo = c.startBound(row)
	hi = c.endBound(row)
	if lo < 0 {
		lo = 0
	}
	if lo > c.n {
		lo = c.n
	}
	if hi > c.n {
		hi = c.n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (c *Computer) startBound(row int) int {
	b := c.spec.Start
	switch c.spec.Mode {
	case Rows:
		switch b.Type {
		case UnboundedPreceding:
			return 0
		case Preceding:
			return row - clampInt(b.offset(row))
		case CurrentRow:
			return row
		case Following:
			return row + clampInt(b.offset(row))
		}
	case Range:
		switch b.Type {
		case UnboundedPreceding:
			return 0
		case Preceding:
			return sortutil.LowerBound(c.keys, satSub(c.keys[row], b.offset(row)))
		case CurrentRow:
			return sortutil.LowerBound(c.keys, c.keys[row])
		case Following:
			return sortutil.LowerBound(c.keys, satAdd(c.keys[row], b.offset(row)))
		}
	case Groups:
		g := int(c.groups[row])
		switch b.Type {
		case UnboundedPreceding:
			return 0
		case Preceding:
			g -= clampInt(b.offset(row))
		case CurrentRow:
			// keep g
		case Following:
			g += clampInt(b.offset(row))
		}
		if g < 0 {
			g = 0
		}
		if g >= len(c.groupStart) {
			return c.n
		}
		return int(c.groupStart[g])
	}
	return 0
}

func (c *Computer) endBound(row int) int {
	b := c.spec.End
	switch c.spec.Mode {
	case Rows:
		switch b.Type {
		case UnboundedFollowing:
			return c.n
		case Preceding:
			return row - clampInt(b.offset(row)) + 1
		case CurrentRow:
			return row + 1
		case Following:
			return row + clampInt(b.offset(row)) + 1
		}
	case Range:
		switch b.Type {
		case UnboundedFollowing:
			return c.n
		case Preceding:
			return sortutil.UpperBound(c.keys, satSub(c.keys[row], b.offset(row)))
		case CurrentRow:
			return sortutil.UpperBound(c.keys, c.keys[row])
		case Following:
			return sortutil.UpperBound(c.keys, satAdd(c.keys[row], b.offset(row)))
		}
	case Groups:
		g := int(c.groups[row])
		switch b.Type {
		case UnboundedFollowing:
			return c.n
		case Preceding:
			g -= clampInt(b.offset(row))
		case CurrentRow:
			// keep g
		case Following:
			g += clampInt(b.offset(row))
		}
		if g < 0 {
			return 0
		}
		if g >= len(c.groupEnd) {
			return c.n
		}
		return int(c.groupEnd[g])
	}
	return c.n
}

// peerRange returns the peer group [lo, hi) of row.
func (c *Computer) peerRange(row int) (int, int) {
	if c.groups != nil {
		g := c.groups[row]
		return int(c.groupStart[g]), int(c.groupEnd[g])
	}
	if c.keys != nil {
		return sortutil.LowerBound(c.keys, c.keys[row]), sortutil.UpperBound(c.keys, c.keys[row])
	}
	return row, row + 1
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

// Spec returns the specification the computer was built from.
func (c *Computer) Spec() Spec { return c.spec }

// Len returns the partition size.
func (c *Computer) Len() int { return c.n }

func clampInt(v int64) int {
	const maxInt = int64(^uint(0) >> 1)
	if v > maxInt {
		return int(maxInt)
	}
	return int(v)
}

// satAdd and satSub saturate on overflow so RANGE offsets near the int64
// limits behave like ±infinity.
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
