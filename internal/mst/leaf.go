package mst

import "fmt"

// The leaf rule. Level 0 of every tree is its input in position order, so a
// query whose position range spans few rows is answered by one pass over
// those rows instead of a descent: a counting pass costs about half a
// nanosecond per row, a descent a fixed O(log n) steps however narrow the
// range (paper §6.4, Fig. 11: a per-frame scan beats the tree below frames
// of ~130 rows). The count and integer-aggregate kernels take the pass for
// ranges of at most leafRows rows; aggregates whose fold order is part of
// the answer (AnnotatedTree) always descend. The select kernel has no leaf
// rule — a narrow value range is spread over all of level 0 — but walks
// level 0 from its predecessor's answer when the frame barely moved
// (select_diff.go).

// LeafRows is the widest position range the count and integer-aggregate
// kernels answer from level 0. It sits well below the measured scan/descent
// crossover of every kernel at every tree size — about 500 rows for the
// int64 fold, 600 and more for the counts, from n = 2,000 up
// (BenchmarkLeafCrossover here and in rangetree; EXPERIMENTS.md "Narrow
// frames at the leaves" has the table).
const LeafRows = 128

// leafRows is the cutoff the kernels read on a full structure — the leaf
// rule's width and the differential count's and select's budgets
// (count_diff.go, select_diff.go). It is LeafRows; tests set it to 0 to send
// every query through the descent.
var leafRows = LeafRows

// SetLeafRows sets the cutoff the kernels read on a full structure and
// returns the previous one: the leaf seam for tests outside this package,
// which set 0 to send every query through the descent and restore the
// returned value afterwards. Nothing else calls it, and it must not be
// called while a kernel runs.
func SetLeafRows(rows int) int {
	prev := leafRows
	leafRows = rows
	return prev
}

// Leaf-only structures. When no range a statement can ask spans more than
// LeafRows rows — the partition has at most that many, or every frame is that
// narrow — no query ever descends, so nothing above level 0 is ever read.
// BuildForm's Leaves form and BuildAnnotatedLeaves (and rangetree.NewLeaves)
// build that: the same types, holding level 0 and what the leaf rule reads
// of it, no merge levels, samples or origin stripes. Every probe entry point
// takes the leaf rule first, so no probe code forks; a leaf-only structure
// answers every range of at most LeafRows rows from level 0 whatever
// leafRows says. A wider range is a caller bug: CheckRows reports it as a
// *WidthError before probing, and the kernels panic on it rather than read
// levels that are not there.

// WidthError reports a query range of Rows rows asked of a structure built
// to answer ranges of at most Max rows — a leaf-only structure, Max =
// LeafRows, probed with a frame wider than the one it was chosen for.
type WidthError struct{ Rows, Max int }

func (e *WidthError) Error() string {
	return fmt.Sprintf("mst: range of %d rows asked of a leaf-only structure answering at most %d", e.Rows, e.Max)
}

// CheckRows returns a *WidthError when a structure of the given form is
// asked a range of rows rows: only a leaf-only one has a limit, LeafRows.
func CheckRows(rows int, form Form) error {
	if form == Leaves && rows > LeafRows {
		return &WidthError{Rows: rows, Max: LeafRows}
	}
	return nil
}

// leafRule reports whether a range of w rows is answered from level 0: on a
// leaf-only structure always — it has nothing else, and a range wider than
// LeafRows is the invariant violation CheckRows reports — and otherwise when
// w is at most the leafRows cutoff.
func leafRule(w int, form Form) bool {
	if form != Leaves {
		return w <= leafRows
	}
	if err := CheckRows(w, Leaves); err != nil {
		// Invariant: callers check CheckRows before probing a leaf-only structure; a wider range would read merge levels that were never built
		panic(err)
	}
	return true
}

// traceSkippedLevels opens, under opt.Trace, the "mst: merge level" span of
// every level a full build over n elements would merge, each marked as
// skipped by the form that was built instead: a trace keeps one shape per
// statement whichever form a structure took, and the "build merge sort
// tree" phase's form attribute says which.
func traceSkippedLevels(n int, opt Options, form Form) {
	if opt.Trace == nil {
		return
	}
	level := 0
	for rl := 1; rl < n; {
		rl = min(rl*opt.Fanout, n)
		level++
		lsp := opt.Trace.Child("mst: merge level")
		lsp.SetInt("level", int64(level))
		lsp.AddInt("runs", int64((n+rl-1)/rl))
		lsp.Set("skipped", form.String())
		lsp.End()
	}
}

// leafTree is the single-level tree over base: buildTree's result for an
// input it would not merge.
func leafTree(base []int32, opt Options) *tree {
	return &tree{
		n: len(base), f: opt.Fanout, k: opt.SampleEvery,
		levels: [][]int32{base}, samples: [][]int32{nil}, origin: [][]uint8{nil},
		stride: []int{0}, effLen: []int{1},
	}
}

// CheckRows returns a *WidthError when the tree cannot answer a range of
// rows rows: only a leaf-only tree has a limit, LeafRows.
func (t *Tree) CheckRows(rows int) error { return CheckRows(rows, t.form) }

// countLeaf returns the number of entries of a smaller than x, without a
// branch per entry. Entries and x lie in [0, math.MaxInt32], so e-x cannot
// overflow and its sign bit is e < x.
func countLeaf(a []int32, x int32) int {
	c := 0
	for _, e := range a {
		c += int(uint32(e-x) >> 31)
	}
	return c
}
