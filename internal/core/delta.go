package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DeltaView describes a table as a frozen base plus a small mutation
// overlay, letting the operator evaluate the current epoch without
// re-sorting the world: a sorted run over the overlay is merged into the
// frozen (PARTITION BY, ORDER BY) order — cached once per generation — and
// every partition id carries a stamp of the partition's own rows, so
// untouched partitions keep hitting the structure cache across epochs.
// internal/delta builds views; Options.Delta carries one into Run. Results
// are byte-identical to evaluating the merged table from scratch (the delta
// equivalence suite enforces this).
//
// Row ids: "merged" ids index the table passed to Run (frozen survivors in
// base order, appends at the tail); "frozen" ids index Frozen.
type DeltaView struct {
	// Frozen is the generation's immutable base table.
	Frozen *Table
	// Epoch stamps the overlay state. No cache key renders it: it only
	// admits per-partition result entries once the dataset has been
	// mutated (Epoch > 0). The overlay's own epochs stamp partitions.
	Epoch int64
	// SkipFrozen marks frozen rows that left the frozen sort order (deleted
	// or overridden in place); the merged sort walks the frozen order
	// skipping them.
	SkipFrozen []bool
	// MergedID maps each frozen row to its merged id (-1 when deleted).
	MergedID []int32
	// Dirty lists the merged ids whose current image is not the frozen one:
	// overridden rows (at their preserved position) and appends (at the
	// tail). DirtyEpochs gives each row's last-modified epoch, the epoch
	// its current image entered the table; a frozen row's is 0.
	Dirty       []int32
	DirtyEpochs []int64
}

// validate checks the view's shape against the merged table.
func (dv *DeltaView) validate(t *Table) error {
	if dv.Frozen == nil {
		return fmt.Errorf("core: delta view has no frozen table")
	}
	nf := dv.Frozen.Rows()
	if len(dv.SkipFrozen) != nf || len(dv.MergedID) != nf {
		return fmt.Errorf("core: delta view covers %d/%d frozen rows, frozen table has %d",
			len(dv.SkipFrozen), len(dv.MergedID), nf)
	}
	kept := 0
	for _, s := range dv.SkipFrozen {
		if !s {
			kept++
		}
	}
	if kept+len(dv.Dirty) != t.Rows() {
		return fmt.Errorf("core: delta view accounts for %d kept + %d dirty rows, merged table has %d",
			kept, len(dv.Dirty), t.Rows())
	}
	if len(dv.DirtyEpochs) != len(dv.Dirty) {
		return fmt.Errorf("core: delta view has %d dirty rows but %d dirty epochs", len(dv.Dirty), len(dv.DirtyEpochs))
	}
	return nil
}

// mergeDirty turns frozen, the frozen table's (PARTITION BY, ORDER BY)
// sort order, into the sort order of t, the table the view describes: the
// frozen order is walked skipping departed rows and translated to merged ids
// (run A), the dirty rows are sorted into a small run B, and run B is placed
// into run A (mergeRuns). Because the frozen-to-merged id mapping is
// monotone and SortIndices breaks ties by ascending index, the merge (ties
// to the smaller merged id) reproduces SortIndices over t bit for bit. A
// view with no dirty row over as many rows as the frozen table has departed
// nothing and renumbered nothing: frozen itself is t's order.
func mergeDirty(t *Table, w *WindowSpec, frozen []int32, opt Options) ([]int32, error) {
	dv := opt.Delta
	if len(dv.Dirty) == 0 && t.Rows() == dv.Frozen.Rows() {
		return frozen, nil
	}
	runA := make([]int32, 0, t.Rows()-len(dv.Dirty))
	for _, r := range frozen {
		if dv.SkipFrozen[r] {
			continue
		}
		runA = append(runA, dv.MergedID[r])
	}
	order, err := sortRows(len(dv.Dirty), dv.Dirty, windowSortCols(t, w), opt)
	if err != nil {
		return nil, err
	}
	for i, pos := range order {
		order[i] = dv.Dirty[pos] // run B: positions back to merged ids
	}
	return mergeRuns(runA, order, windowComparator(t, w)), nil
}

// mergeRuns merges the short sorted run B into the long sorted run A. Merging
// a short run into a long one is a search problem, not a scan: each B row is
// placed by binary search before the first A row that orders after it — that
// compares greater, or equal with a larger id, the tie rule both runs were
// sorted under — and the A stretches between placements are bulk copies. B is
// sorted, so each search starts where the last one ended: O(|B| log |A|)
// comparator calls where the two-way merge made |A|.
func mergeRuns(runA, runB []int32, cmpRows func(a, b int) int) []int32 {
	out := make([]int32, 0, len(runA)+len(runB))
	for _, b := range runB {
		n := sort.Search(len(runA), func(i int) bool {
			a := runA[i]
			c := cmpRows(int(a), int(b))
			return c > 0 || (c == 0 && a > b)
		})
		out = append(out, runA[:n]...)
		out = append(out, b)
		runA = runA[n:]
	}
	return append(out, runA...)
}

// newestEpochs maps each rendered partition key to the newest epoch among
// the partition's current rows. Only dirty rows carry an epoch above 0, so
// a partition no dirty row belongs to is absent (its newest epoch is 0).
func newestEpochs(t *Table, w *WindowSpec, dv *DeltaView) map[string]int64 {
	m := make(map[string]int64)
	var sb strings.Builder
	cols := partitionColumns(t, w)
	for i, id := range dv.Dirty {
		key := renderPartKey(&sb, cols, int(id))
		m[key] = max(m[key], dv.DirtyEpochs[i])
	}
	return m
}

// partitionColumns resolves the PARTITION BY columns against a table.
func partitionColumns(t *Table, w *WindowSpec) []*Column {
	cols := make([]*Column, len(w.PartitionBy))
	for i, name := range w.PartitionBy {
		cols[i] = t.Column(name)
	}
	return cols
}

// renderPartKey renders a row's PARTITION BY values as a canonical string:
// equal renderings if and only if the rows are partition peers (equalAt
// semantics: NULL equals NULL, NaN equals NaN, -0.0 equals 0.0). The
// builder is reset and reused across calls.
func renderPartKey(b *strings.Builder, cols []*Column, row int) string {
	b.Reset()
	for _, c := range cols {
		renderKeyCell(b, c, row)
	}
	return b.String()
}

func renderKeyCell(b *strings.Builder, c *Column, row int) {
	if c.IsNull(row) {
		b.WriteString("n;")
		return
	}
	switch c.Kind() {
	case Int64:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(c.Int64(row), 10))
	case Float64:
		f := c.Float64(row)
		if f == 0 {
			f = 0 // canonicalize -0.0: equalAt treats it as equal to +0.0
		}
		if math.IsNaN(f) {
			b.WriteString("fnan") // equalAt treats every NaN as equal
		} else {
			b.WriteByte('f')
			b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
	case String:
		b.WriteByte('s')
		b.WriteString(strconv.Quote(c.StringAt(row)))
	default:
		if c.Bool(row) {
			b.WriteString("bt")
		} else {
			b.WriteString("bf")
		}
	}
	b.WriteByte(';')
}

// keyPartitions gives every partition its id: the executed sort's
// identity, the partition's rendered PARTITION BY values and its stamp —
// the newest epoch among its current rows (0 outside a delta run) and its
// row count. Under one scope these name the partition's content (DESIGN.md
// §13.2): every row that enters a partition carries a newer epoch than the
// rows already there, so two states with the same newest epoch and the same
// count hold the same rows in the same order, and a partition the mutation
// stream never touched renders the same id at every epoch of the
// generation, its trees surviving mutations elsewhere in the table.
func keyPartitions(t *Table, w *WindowSpec, parts []*partition, opt Options) {
	var newest map[string]int64
	if opt.Delta != nil {
		newest = newestEpochs(t, w, opt.Delta)
	}
	sk := sortOf(w)
	prefix := sk.String() + "|pk="
	cols := partitionColumns(t, w)
	var sb strings.Builder
	for _, p := range parts {
		values := renderPartKey(&sb, cols, int(p.rows[0]))
		p.id = prefix + values + "|pd" + strconv.FormatInt(newest[values], 10) + "|n" + strconv.Itoa(p.len())
	}
}
