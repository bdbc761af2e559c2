package delta

import (
	"slices"

	"holistic/internal/sortutil"
)

// Run is an immutable sorted run of int64 values — the query-side shape of a
// small delta: a frozen structure (merge sort tree, sorted base run) answers
// the bulk of a probe and the Run answers the recent remainder with binary
// searches. internal/stream keeps its sliding-window tail in one, and the
// operator's delta sort path merges the frozen order with a run over the
// overlay the same way.
type Run struct {
	vals []int64
}

// NewRun sorts vals ascending (in place — the Run takes ownership) and wraps
// them.
func NewRun(vals []int64) Run {
	slices.Sort(vals)
	return Run{vals: vals}
}

// Len returns the number of values.
func (r Run) Len() int { return len(r.vals) }

// Values returns the sorted values; callers must not modify them.
func (r Run) Values() []int64 { return r.vals }

// CountBelow counts values strictly less than v.
func (r Run) CountBelow(v int64) int { return sortutil.LowerBound(r.vals, v) }

// CountAtMost counts values less than or equal to v.
func (r Run) CountAtMost(v int64) int { return sortutil.UpperBound(r.vals, v) }

// ForEachUnique calls fn once per distinct value, ascending.
func (r Run) ForEachUnique(fn func(v int64)) {
	for i, v := range r.vals {
		if i > 0 && r.vals[i-1] == v {
			continue
		}
		fn(v)
	}
}
