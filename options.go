package holistic

import (
	"holistic/internal/core"
	"holistic/internal/obs"
)

// Span is one timed region of a query's execution. Spans form a tree —
// phases, per-function evaluations, parallel workers — with monotonic
// timings and string attributes; see NewTrace and Options.Trace. A nil
// *Span is a valid disabled span.
type Span = obs.Span

// NewTrace starts a root span to collect a query's span tree under. The
// caller ends it after the run and reads the tree with Span.Walk, Render
// or PhaseTotals:
//
//	root := holistic.NewTrace("query")
//	res, err := holistic.RunOptions(table, w, holistic.Options{Trace: root}, funcs...)
//	root.End()
//	fmt.Print(root.Render())
func NewTrace(name string) *Span { return obs.NewSpan(name) }

// TreeCache is the cross-query structure cache a run consults when
// Options.Cache names one together with Options.CacheScope (see
// internal/treecache for the canonical implementation exposed through the
// server). A run without one keeps its own cache until it returns.
type TreeCache = core.TreeCache
