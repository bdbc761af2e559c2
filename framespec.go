package holistic

import "holistic/internal/frame"

// Frame is a window frame specification: mode, bounds, exclusion.
type Frame frame.Spec

// Bound is one frame boundary.
type Bound = frame.Bound

// Preceding bounds the frame n units before the current row (rows, key
// delta, or peer groups, depending on the frame mode).
func Preceding(n int64) Bound { return Bound{Type: frame.Preceding, Offset: n} }

// Following bounds the frame n units after the current row.
func Following(n int64) Bound { return Bound{Type: frame.Following, Offset: n} }

// PrecedingBy bounds the frame by a per-row offset expression — SQL allows
// arbitrary expressions as frame offsets (§2.2), which makes frames
// non-monotonic; the merge sort tree does not care (§4.1), the incremental
// competitors degrade (§6.5). The callback receives the ORIGINAL row index
// of the input table, so it can read per-row columns.
func PrecedingBy(offset func(row int) int64) Bound {
	return Bound{Type: frame.Preceding, OffsetFn: offset}
}

// FollowingBy bounds the frame by a per-row offset expression.
func FollowingBy(offset func(row int) int64) Bound {
	return Bound{Type: frame.Following, OffsetFn: offset}
}

// CurrentRow bounds the frame at the current row (including its ORDER BY
// peers in RANGE and GROUPS mode, per the SQL standard).
func CurrentRow() Bound { return Bound{Type: frame.CurrentRow} }

// UnboundedPreceding starts the frame at the partition start.
func UnboundedPreceding() Bound { return Bound{Type: frame.UnboundedPreceding} }

// UnboundedFollowing ends the frame at the partition end.
func UnboundedFollowing() Bound { return Bound{Type: frame.UnboundedFollowing} }

// Rows builds a ROWS frame: offsets count physical rows.
func Rows(start, end Bound) Frame {
	return Frame{Mode: frame.Rows, Start: start, End: end}
}

// Range builds a RANGE frame: offsets are order-key value deltas, which
// require a single INT64 window ORDER BY key; CURRENT ROW is the current
// row's peer group under any ORDER BY.
func Range(start, end Bound) Frame {
	return Frame{Mode: frame.Range, Start: start, End: end}
}

// Groups builds a GROUPS frame: offsets count ORDER BY peer groups.
func Groups(start, end Bound) Frame {
	return Frame{Mode: frame.Groups, Start: start, End: end}
}

// WholePartition is ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
// FOLLOWING.
func WholePartition() Frame { return Frame(frame.WholePartition()) }

// ExcludeCurrentRow removes the current row from the frame.
func (f Frame) ExcludeCurrentRow() Frame {
	f.Exclude = frame.ExcludeCurrentRow
	return f
}

// ExcludeGroup removes the current row and all its ORDER BY peers.
func (f Frame) ExcludeGroup() Frame {
	f.Exclude = frame.ExcludeGroup
	return f
}

// ExcludeTies removes the current row's peers but keeps the row itself.
func (f Frame) ExcludeTies() Frame {
	f.Exclude = frame.ExcludeTies
	return f
}
