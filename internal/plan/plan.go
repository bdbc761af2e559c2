// Package plan is the shared-plan optimizer for multi-function window
// statements: it normalizes every window specification in a statement,
// groups windows whose evaluation can share work, and builds an explicit
// plan DAG whose nodes — sort, partition boundaries, preprocessing arrays,
// tree builds, function probes — are shared wherever reuse is sound.
//
// The optimizer generalizes the identical-window grouping of Kohn et al.
// (§3.1) along the lines of "Optimization of Analytic Window Functions"
// (Cao et al.): one sort on (a, b, c) also serves windows ordered by (a)
// and (a, b) under the same PARTITION BY, windows over one sort share
// partition boundary detection and per-partition preprocessing, and merge
// sort trees are shared across functions with the same (partition, order,
// argument, tree kind) even when their frames differ — frames are
// probe-time parameters in the structure-cache keys.
//
// # Sharing soundness
//
// Refining a window's ORDER BY from (a) to (a, b, c) permutes rows only
// within the window's peer groups (rows equal on a), because the shared
// sort — like the unshared one — breaks residual ties by original row
// index. Frames in RANGE and GROUPS mode are peer-aligned: the frame of
// every row is the same *set* of rows under any intra-peer permutation.
// A window with a strict-prefix ORDER BY may therefore join a shared sort
// only if every one of its functions is order-insensitive: its result is
// determined by the frame's row set (plus the function-level order, which
// ties on original row index and is independent of the window sort).
// Order-sensitive frames stay in their own group: ROWS-mode frames
// (positional — except unbounded..unbounded, which is the whole partition
// in any mode) and per-row offset expressions. No function is: every sum is
// exact or wraps modulo 2⁶⁴ (core's exactsum.go), and MIN/MAX break ties
// between equal values by table row, so no order reaches an answer and the
// plan reads no column type. Windows whose ORDER BY equals the group's sort
// order exactly are unrestricted. The shared-plan equivalence suite pins
// byte-identical results across all 22 functions.
package plan

import (
	"fmt"
	"sort"

	"holistic/internal/core"
	"holistic/internal/frame"
)

// Item is one select-list entry of a statement: either a pass-through
// source column (SrcColumn set, Func nil) or a window function bound to its
// window's partitioning and ordering. Func.Output must equal Name, and
// Func.Frame should carry the resolved frame (a nil Frame falls back to
// SQL's default for the window's ORDER BY).
type Item struct {
	// Name is the output column's unique name.
	Name string
	// SrcColumn names the source column for pass-through items.
	SrcColumn string
	// PartitionBy and OrderBy are the item's window specification.
	PartitionBy []string
	OrderBy     []core.SortKey
	// Func is the window function; nil for pass-through items.
	Func *core.FuncSpec
}

// Statement is one SELECT in planner form: the source table name and the
// select list in output order.
type Statement struct {
	Table string
	Items []Item
}

// Node is one operator of the plan DAG. Nodes appear in a valid execution
// order (inputs always precede consumers).
type Node struct {
	// ID is the node's identity within the plan (e.g. "sort0", "tree2").
	ID string
	// Kind is the operator class: "sort", "partitions", "preprocess",
	// "tree" or "probe".
	Kind string
	// Label describes the operator in §4/§5 terms.
	Label string
	// Inputs lists the IDs of the nodes this one consumes.
	Inputs []string
	// SharedBy lists the output columns (functions) this node serves; a
	// node with more than one entry is computed once and reused.
	SharedBy []string
}

// Stats summarizes how much work the plan shares. The counts are
// deterministic properties of the plan shape (pinned by the dedup-counter
// tests), so identical statements always report identical sharing.
type Stats struct {
	// Operators is the number of DAG nodes.
	Operators int
	// SortsShared counts windows that reused another window's sort instead
	// of sorting themselves.
	SortsShared int
	// TreesShared counts tree builds avoided: for every shared tree, its
	// consumers beyond the first.
	TreesShared int
	// PreprocessShared counts reused preprocessing: partition-boundary and
	// per-partition array reuse by windows beyond a group's first, plus
	// preprocessing-array consumers beyond a structure's first.
	PreprocessShared int
}

// window is one deduplicated (PARTITION BY, ORDER BY) specification and the
// functions evaluated over it.
type window struct {
	partitionBy []string
	orderBy     []core.SortKey
	funcs       []core.FuncSpec
	first       int // select-list position of the window's first function
}

// group is one shared-sort cluster: the windows evaluated over one sort on
// (partitionBy, orderBy). orderBy is the longest member order; every other
// member's order is a prefix of it.
type group struct {
	partitionBy []string
	orderBy     []core.SortKey
	windows     []*window
	first       int
}

// Plan is a built statement plan: the DAG, its sharing stats, and the
// execution groups Execute runs.
type Plan struct {
	// Nodes is the plan DAG in execution order.
	Nodes []Node
	// Stats summarizes the plan's sharing.
	Stats Stats

	stmt        *Statement
	groups      []*group
	passThrough int
}

// Build normalizes the statement's windows and constructs the shared plan:
// identical windows merge, compatible windows cluster under one sort, and
// the DAG records which functions consume every shared node.
func Build(stmt *Statement) (*Plan, error) {
	p := &Plan{stmt: stmt}
	seen := make(map[string]bool, len(stmt.Items))

	// Step 1: dedup identical (PARTITION BY, ORDER BY) windows, keeping
	// first-appearance order.
	windows := map[string]*window{}
	var windowOrder []string
	for i := range stmt.Items {
		item := &stmt.Items[i]
		if item.Name == "" {
			return nil, fmt.Errorf("plan: item %d has no output name", i)
		}
		if seen[item.Name] {
			return nil, fmt.Errorf("plan: duplicate output column %q", item.Name)
		}
		seen[item.Name] = true
		if item.Func == nil {
			if item.SrcColumn == "" {
				return nil, fmt.Errorf("plan: item %q is neither a column nor a function", item.Name)
			}
			p.passThrough++
			continue
		}
		key := windowKey(item.PartitionBy, item.OrderBy)
		w, ok := windows[key]
		if !ok {
			w = &window{partitionBy: item.PartitionBy, orderBy: item.OrderBy, first: i}
			windows[key] = w
			windowOrder = append(windowOrder, key)
		}
		w.funcs = append(w.funcs, *item.Func)
	}

	// Step 2: group windows by partition column *set* — partitioning is
	// order-independent — keeping first-appearance order.
	partGroups := map[string][]*window{}
	var partOrder []string
	for _, key := range windowOrder {
		w := windows[key]
		pk := partitionSetKey(w.partitionBy)
		if _, ok := partGroups[pk]; !ok {
			partOrder = append(partOrder, pk)
		}
		partGroups[pk] = append(partGroups[pk], w)
	}

	// Step 3: cluster each partition group's windows under shared sorts.
	// Longest ORDER BY first: every window joins the first cluster whose
	// order it prefixes — always when the orders are equal, and under the
	// order-insensitivity gate when the prefix is strict.
	for _, pk := range partOrder {
		ws := append([]*window(nil), partGroups[pk]...)
		sort.SliceStable(ws, func(i, j int) bool {
			if len(ws[i].orderBy) != len(ws[j].orderBy) {
				return len(ws[i].orderBy) > len(ws[j].orderBy)
			}
			return ws[i].first < ws[j].first
		})
		var clusters []*group
		for _, w := range ws {
			joined := false
			for _, g := range clusters {
				if !orderIsPrefix(w.orderBy, g.orderBy) {
					continue
				}
				if len(w.orderBy) < len(g.orderBy) && !windowInsensitive(w) {
					continue
				}
				g.windows = append(g.windows, w)
				if w.first < g.first {
					g.first = w.first
				}
				joined = true
				break
			}
			if !joined {
				clusters = append(clusters, &group{
					partitionBy: w.partitionBy,
					orderBy:     w.orderBy,
					windows:     []*window{w},
					first:       w.first,
				})
			}
		}
		p.groups = append(p.groups, clusters...)
	}

	// Execution (and DAG) order: by first select-list appearance.
	sort.SliceStable(p.groups, func(i, j int) bool { return p.groups[i].first < p.groups[j].first })
	for _, g := range p.groups {
		sort.SliceStable(g.windows, func(i, j int) bool { return g.windows[i].first < g.windows[j].first })
	}

	p.buildDAG()
	return p, nil
}

// windowKey renders the exact (PARTITION BY listing, ORDER BY) identity used
// for window dedup, with core's column and sort-key renderers.
func windowKey(partitionBy []string, orderBy []core.SortKey) string {
	return string(core.AppendOrder(append(core.AppendColumns(nil, partitionBy), ';'), orderBy))
}

// partitionSetKey renders the partition columns as an order-independent set.
func partitionSetKey(cols []string) string {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	return string(core.AppendColumns(nil, sorted))
}

// orderIsPrefix reports whether a is a (possibly equal) prefix of b.
func orderIsPrefix(a, b []core.SortKey) bool {
	if len(a) > len(b) {
		return false
	}
	for i, k := range a {
		if b[i] != k {
			return false
		}
	}
	return true
}

// effectiveFrame resolves the frame a planned function runs under (the
// bound Frame, or SQL's default for the window's ORDER BY).
func effectiveFrame(f *core.FuncSpec, orderBy []core.SortKey) frame.Spec {
	if f.Frame != nil {
		return *f.Frame
	}
	return frame.DefaultFor(len(orderBy) > 0)
}

// windowInsensitive reports whether every function of the window tolerates
// a refined sort order (see the package comment's soundness rules).
func windowInsensitive(w *window) bool {
	for i := range w.funcs {
		if !orderInsensitive(&w.funcs[i], w.orderBy) {
			return false
		}
	}
	return true
}

// orderInsensitive reports whether one function's result is determined by
// frame row sets alone, making it safe to evaluate under a sort refined
// beyond its window's ORDER BY. Every function is, over the same row set:
// sums are exact or wrap, MIN/MAX and the function-level order tie on
// original row index, independent of the window sort. So only the frame
// decides.
func orderInsensitive(f *core.FuncSpec, orderBy []core.SortKey) bool {
	fr := effectiveFrame(f, orderBy)
	// An unbounded..unbounded frame is the whole partition in any mode: the
	// row set cannot depend on order. (This is the shape windows without an
	// ORDER BY get, so unordered windows join any compatible sort.)
	if fr.Start.Type == frame.UnboundedPreceding && fr.End.Type == frame.UnboundedFollowing {
		return true
	}
	// ROWS frames select rows by position; an intra-peer permutation
	// changes the selected set. RANGE and GROUPS frames are peer-aligned.
	// Per-row offset expressions are keyed by row id, not position, but the
	// positions they shift from move — keep them unshared.
	return fr.Mode != frame.Rows && fr.Start.OffsetFn == nil && fr.End.OffsetFn == nil
}
