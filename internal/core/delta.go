package core

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"holistic/internal/sortutil"
)

// DeltaView describes a table as a frozen base plus a small mutation
// overlay, letting the operator evaluate the current epoch without
// re-sorting the world: the frozen (PARTITION BY, ORDER BY) order — cached
// once per generation — is merged with a sorted run over the overlay, and
// per-partition structures are re-keyed by partition content and
// last-change epoch so untouched partitions keep hitting the structure
// cache across epochs. internal/delta builds views; Options.Delta carries
// one into Run. Results are byte-identical to evaluating the merged table
// from scratch (the delta equivalence suite enforces this).
//
// Row ids: "merged" ids index the table passed to Run (frozen survivors in
// base order, appends at the tail); "frozen" ids index Frozen.
type DeltaView struct {
	// Frozen is the generation's immutable base table.
	Frozen *Table
	// Epoch stamps the overlay state; it leads the per-epoch cache keys
	// (StaleEpochs matches the superseded ones).
	Epoch int64
	// SkipFrozen marks frozen rows that left the frozen sort order (deleted
	// or overridden in place); the merged sort walks the frozen order
	// skipping them.
	SkipFrozen []bool
	// MergedID maps each frozen row to its merged id (-1 when deleted).
	MergedID []int32
	// Dirty lists the merged ids whose current image is not the frozen one:
	// overridden rows (at their preserved position) and appends (at the
	// tail). DirtyEpochs gives each row's last-modified epoch.
	Dirty       []int32
	DirtyEpochs []int64
	// RemovedRows lists frozen rows that left the frozen order, with the
	// epoch they left at — the departure side of the change log, used to
	// stamp the partitions rows were deleted or moved out of.
	RemovedRows   []int32
	RemovedEpochs []int64
	// Ghosts preserves superseded overlay images (a row upserted twice, an
	// appended row later deleted): enough to stamp partitions whose former
	// members no longer appear anywhere in the merged table. Nil when none.
	Ghosts      *Table
	GhostEpochs []int64
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
	if len(dv.RemovedEpochs) != len(dv.RemovedRows) {
		return fmt.Errorf("core: delta view has %d removed rows but %d removed epochs", len(dv.RemovedRows), len(dv.RemovedEpochs))
	}
	if dv.Ghosts != nil && dv.Ghosts.Rows() != len(dv.GhostEpochs) {
		return fmt.Errorf("core: delta view has %d ghosts but %d ghost epochs", dv.Ghosts.Rows(), len(dv.GhostEpochs))
	}
	return nil
}

// deltaSortIndices computes the merged (PARTITION BY, ORDER BY) sort order
// incrementally: the frozen generation's sort — cached under a
// generation-stable key, shared by every epoch — is walked skipping
// departed rows and translated to merged ids (run A), the dirty rows are
// sorted into a small run B, and run B is placed into run A (mergeRuns).
// Because the frozen-to-merged id mapping is monotone and SortIndices breaks
// ties by ascending index, the merge (ties to the smaller merged id)
// reproduces SortIndices over the merged table bit for bit.
func deltaSortIndices(t *Table, w *WindowSpec, opt Options) ([]int32, error) {
	dv := opt.Delta
	sk := sortOf(tagFrozenSort, w)
	fz, err := cacheGet(opt, &sk, nil, func() (cachedSort, int64, error) {
		idx, err := windowSortIndices(dv.Frozen, w, opt)
		if err != nil {
			return cachedSort{}, 0, err
		}
		return cachedSort{idx: idx}, int64(4 * len(idx)), nil
	})
	if err != nil {
		return nil, err
	}

	runA := make([]int32, 0, t.Rows()-len(dv.Dirty))
	for _, r := range fz.idx {
		if dv.SkipFrozen[r] {
			continue
		}
		runA = append(runA, dv.MergedID[r])
	}
	cmpRows := windowComparator(t, w)
	runB, err := sortDirtyRun(t, w, dv.Dirty, cmpRows, opt)
	if err != nil {
		return nil, err
	}
	return mergeRuns(runA, runB, cmpRows), nil
}

// sortDirtyRun returns the dirty merged ids in window order, ties by
// ascending id — through the typed key words when every sort column has
// them, like the frozen sort beside it, and through the comparator otherwise.
func sortDirtyRun(t *Table, w *WindowSpec, dirty []int32, cmpRows func(a, b int) int, opt Options) ([]int32, error) {
	runB := make([]int32, len(dirty))
	cols := windowSortCols(t, w)
	if radixSortable(cols) {
		order, err := sortByKeyWords(len(dirty), dirty, cols, opt)
		if err != nil {
			return nil, err
		}
		for i, pos := range order {
			runB[i] = dirty[pos]
		}
		return runB, nil
	}
	copy(runB, dirty)
	sortutil.SortFunc(runB, func(a, b int32) int {
		if c := cmpRows(int(a), int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return runB, nil
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

// cachedStamps is the per-epoch partition stamp map: rendered PARTITION BY
// key -> the latest epoch any mutation touched that partition.
type cachedStamps struct{ m map[string]int64 }

// deltaStamps fetches (or computes) the epoch's stamp map.
func deltaStamps(t *Table, w *WindowSpec, opt Options) (map[string]int64, error) {
	dv := opt.Delta
	sk := Structure{Tag: tagStamps, Partition: w.PartitionBy}
	cs, err := cacheGet(opt, &sk, nil, func() (cachedStamps, int64, error) {
		m := computeStamps(t, w, dv)
		bytes := int64(48) // map header
		for k := range m {
			bytes += int64(len(k)) + 24
		}
		return cachedStamps{m: m}, bytes, nil
	})
	return cs.m, err
}

// computeStamps folds the overlay's three change logs into one map from
// rendered partition key to the latest epoch that touched the partition.
// Every way a partition's content can change leaves a trace in at least one
// log: current images (dirty rows) stamp the partition a changed row now
// belongs to, removed frozen rows stamp the partition it left, and ghosts
// stamp partitions whose former members have no frozen image at all.
func computeStamps(t *Table, w *WindowSpec, dv *DeltaView) map[string]int64 {
	m := make(map[string]int64)
	bump := func(key string, e int64) {
		if e > m[key] {
			m[key] = e
		}
	}
	var sb strings.Builder
	cols := partitionColumns(t, w)
	for i, id := range dv.Dirty {
		bump(renderPartKey(&sb, cols, int(id)), dv.DirtyEpochs[i])
	}
	fcols := partitionColumns(dv.Frozen, w)
	for i, r := range dv.RemovedRows {
		bump(renderPartKey(&sb, fcols, int(r)), dv.RemovedEpochs[i])
	}
	if dv.Ghosts != nil {
		gcols := partitionColumns(dv.Ghosts, w)
		for i := 0; i < dv.Ghosts.Rows(); i++ {
			bump(renderPartKey(&sb, gcols, i), dv.GhostEpochs[i])
		}
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

// stampPartitions keys every partition by its rendered PARTITION BY values
// and the latest epoch a mutation touched it, switching partition cache
// keys from ordinal form to content+epoch form: a partition the mutation
// stream never touched renders the same key at every epoch of the
// generation, so its trees survive mutations elsewhere in the table.
func stampPartitions(t *Table, w *WindowSpec, parts []*partition, opt Options) error {
	stamps, err := deltaStamps(t, w, opt)
	if err != nil {
		return err
	}
	cols := partitionColumns(t, w)
	var sb strings.Builder
	for _, p := range parts {
		p.idKey = renderPartKey(&sb, cols, int(p.rows[0]))
		p.stamp = stamps[p.idKey]
		p.stamped = true
	}
	return nil
}
