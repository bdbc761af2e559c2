package holistic

import (
	"context"

	"holistic/internal/core"
	"holistic/internal/obs"
)

// Span is one timed region of a query's execution. Spans form a tree —
// phases, per-function evaluations, parallel workers — with monotonic
// timings and string attributes; see NewTrace and WithTrace. A nil *Span
// is a valid disabled span.
type Span = obs.Span

// NewTrace starts a root span to collect a query's span tree under. The
// caller ends it after the run and reads the tree with Span.Walk, Render
// or PhaseTotals:
//
//	root := holistic.NewTrace("query")
//	res, err := holistic.RunWith(table, w, funcs, holistic.WithTrace(root))
//	root.End()
//	fmt.Print(root.Render())
func NewTrace(name string) *Span { return obs.NewSpan(name) }

// TreeCache is the cross-query structure cache consulted by runs configured
// with WithCache (see internal/treecache for the canonical implementation
// exposed through the server).
type TreeCache = core.TreeCache

// Option is a functional execution option for RunWith and RunSQLWith. The
// options layer over the Options struct: NewOptions(opts...) yields the
// equivalent struct, and the zero Options value — no options at all — keeps
// working unchanged.
type Option func(*Options)

// NewOptions folds functional options into an Options struct, for callers
// that mix both styles or pass Options across API boundaries.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// WithTrace records the run's span tree — phases, one evaluation span per
// function (every partition's evaluation accumulates into it) with cache
// counts, parallel workers — under the given root span. The caller owns root and ends it after the run;
// Span.PhaseTotals on this tree is the aggregate per-phase timing view
// (Figure 14).
func WithTrace(root *Span) Option {
	return func(o *Options) { o.Trace = root }
}

// WithContext makes the run cancellable: the operator checks ctx between
// phases and between parallel task chunks.
func WithContext(ctx context.Context) Option {
	return func(o *Options) { o.Context = ctx }
}

// WithCache enables cross-query structure reuse: sort orders, merge sort
// trees and preprocessed arrays are looked up in c under keys prefixed by
// scope, which must identify the table's content version (e.g. "orders@v3")
// and be bumped on every table change.
func WithCache(c TreeCache, scope string) Option {
	return func(o *Options) { o.Cache = c; o.CacheScope = scope }
}

// WithTaskSize sets the parallel task granularity in rows (default 20 000,
// the Hyper task size the paper uses, §5.5).
func WithTaskSize(rows int) Option {
	return func(o *Options) { o.TaskSize = rows }
}

// WithTree configures merge sort tree construction (fanout f, pointer
// sampling k, cascading, and a size-aware tuner via
// TreeOptions.Tuning — see internal/mst/tune and DESIGN.md §15.2;
// explicitly set fields always beat the tuner's choices).
func WithTree(t TreeOptions) Option {
	return func(o *Options) { o.Tree = t }
}

// WithoutSharedPlan opts SQL execution out of the shared-plan optimizer
// (Options.NoSharedPlan): every distinct window then sorts, partitions and
// builds its structures independently, as before the optimizer existed.
// Results are byte-identical either way; the flag exists for performance
// comparisons and as an escape hatch. Explain output is unaffected.
func WithoutSharedPlan() Option {
	return func(o *Options) { o.NoSharedPlan = true }
}

// WithEngine sets the run's default evaluation engine: it applies to every
// function whose Engine was left at the zero value. The zero value is the
// merge sort tree, so per-function competitor selections (Func.WithEngine)
// always win over this default, and WithEngine(EngineMergeSortTree) is a
// no-op.
func WithEngine(e Engine) Option {
	return func(o *Options) { o.DefaultEngine = e }
}

// WithParallelism caps the number of parallel workers this run uses,
// below the process-wide limit. Unlike parallel.SetMaxWorkers the cap is
// scoped to the run (it travels in the run's context), so concurrent runs
// are unaffected. n <= 0 leaves the process-wide limit in charge.
func WithParallelism(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// RunWith evaluates the functions over the table under the window
// specification, configured with functional options.
func RunWith(t *Table, w *Window, funcs []*Func, opts ...Option) (*Result, error) {
	return RunOptions(t, w, NewOptions(opts...), funcs...)
}

// RunSQLWith is RunSQL configured with functional options.
func RunSQLWith(query string, tables map[string]*Table, opts ...Option) (*Table, error) {
	return RunSQLOptions(query, tables, NewOptions(opts...))
}

// compile-time check that core's engine zero value is the merge sort tree,
// which WithEngine's "zero means default" contract relies on.
var _ = [1]struct{}{}[core.EngineMergeSortTree]
