package delta

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"holistic/internal/core"
	"holistic/internal/obs"
	"holistic/internal/parallel"
)

// materializations counts merged-table builds process-wide in obs.Default.
var materializations = obs.Default.NewCounter("windowd_delta_materializations_total",
	"Merged-table materializations (once per queried dirty epoch).").With()

// frozen is one immutable base generation.
type frozen struct {
	table *core.Table
	gen   int64
}

// Snapshot is one immutable epoch of a Buffer: the frozen base plus the
// overlay accumulated since the freeze. Snapshots are safe to read from any
// number of goroutines and never change after publication; Apply builds the
// next epoch's snapshot from copies.
type Snapshot struct {
	f     *frozen
	epoch int64

	// gone marks base rows deleted from the merged table (nil: none).
	gone    []bool
	numGone int
	// overridden marks base rows that left the frozen sort order: deleted,
	// or with their current image in the overlay (nil: none). Overridden
	// rows that are not gone still occupy their merged position.
	overridden    []bool
	numOverridden int

	dirty dirtyState
	// superseded counts the overlay images replaced or deleted since the
	// freeze (a row upserted twice, an appended row later deleted). No
	// image is kept: the count only sizes the overlay for compaction.
	superseded int

	matOnce sync.Once
	mat     *core.Table
	matErr  error

	viewOnce sync.Once
	view     *core.DeltaView
}

// dirtyState holds the overlay's current row images: appended rows and the
// new images of overridden base rows, one slot each.
type dirtyState struct {
	// target is the overridden base row, or -1 for appended rows.
	target []int32
	alive  []bool
	// epochs is the epoch each live slot's image entered the table.
	epochs []int64
	// vals holds each slot's image, in slot order, in the base's schema. It
	// is immutable: Apply replaces it whole once a batch has succeeded.
	vals *core.Table
}

// Epoch returns the snapshot's epoch.
func (s *Snapshot) Epoch() int64 { return s.epoch }

// Gen returns the frozen generation the snapshot overlays (0 for the
// originally registered base, +1 per compaction).
func (s *Snapshot) Gen() int64 { return s.f.gen }

// Rows returns the merged table's row count.
func (s *Snapshot) Rows() int {
	return s.f.table.Rows() - s.numGone - s.dirty.numOverrides() + s.dirty.numAlive()
}

// DeltaRows sizes the overlay — current images, superseded images and
// departed base rows — which is what the compaction threshold is measured
// against.
func (s *Snapshot) DeltaRows() int {
	return len(s.dirty.target) + s.superseded + s.numOverridden
}

// Clean reports whether the snapshot carries no overlay at all, i.e. the
// merged table IS the frozen base and Table copies nothing. (Every
// superseded image was a slot, and every gone base row left the frozen
// order first.)
func (s *Snapshot) Clean() bool {
	return len(s.dirty.target) == 0 && s.numOverridden == 0
}

func (s *Snapshot) rowGone(r int32) bool       { return s.gone != nil && s.gone[r] }
func (s *Snapshot) rowOverridden(r int32) bool { return s.overridden != nil && s.overridden[r] }

// keyColPos returns the key column's position in the base schema.
func (s *Snapshot) keyColPos(keyCol string) int {
	for i, c := range s.f.table.Columns() {
		if c.Name() == keyCol {
			return i
		}
	}
	return -1
}

// cloneForApply copies the overlay's slot state (the frozen base and the
// immutable row images are shared) and advances the epoch, so the mutations
// of one batch never write into state a concurrent reader can observe.
func (s *Snapshot) cloneForApply() *Snapshot {
	n := &Snapshot{
		f:             s.f,
		epoch:         s.epoch + 1,
		numGone:       s.numGone,
		numOverridden: s.numOverridden,
		superseded:    s.superseded,
	}
	if s.gone != nil {
		n.gone = append([]bool(nil), s.gone...)
	}
	if s.overridden != nil {
		n.overridden = append([]bool(nil), s.overridden...)
	}
	n.dirty = dirtyState{
		target: append([]int32(nil), s.dirty.target...),
		alive:  append([]bool(nil), s.dirty.alive...),
		epochs: append([]int64(nil), s.dirty.epochs...),
		vals:   s.dirty.vals,
	}
	return n
}

// markOverridden records a base row's first override: it leaves the frozen
// sort order but keeps its merged position.
func (s *Snapshot) markOverridden(r int32) {
	if s.overridden == nil {
		s.overridden = make([]bool, s.f.table.Rows())
	}
	s.overridden[r] = true
	s.numOverridden++
}

// markGone deletes a base row that already left the frozen order.
func (s *Snapshot) markGone(r int32) {
	if s.gone == nil {
		s.gone = make([]bool, s.f.table.Rows())
	}
	if !s.gone[r] {
		s.gone[r] = true
		s.numGone++
	}
}

func (d *dirtyState) numAlive() int {
	n := 0
	for _, a := range d.alive {
		if a {
			n++
		}
	}
	return n
}

// numOverrides counts alive slots that shadow a base row (their merged
// position is the base row's, so they must not be double counted).
func (d *dirtyState) numOverrides() int {
	n := 0
	for i, a := range d.alive {
		if a && d.target[i] >= 0 {
			n++
		}
	}
	return n
}

// append adds a slot and returns it; the caller records its image.
func (d *dirtyState) append(target int32, epoch int64) int32 {
	slot := int32(len(d.target))
	d.target = append(d.target, target)
	d.alive = append(d.alive, true)
	d.epochs = append(d.epochs, epoch)
	return slot
}

// noImages is an overlay of t's schema without rows.
func noImages(t *core.Table) *core.Table {
	cols := make([]*core.Column, len(t.Columns()))
	for ci, c := range t.Columns() {
		cols[ci] = core.ConcatSpans([]*core.Column{c}, nil)
	}
	return core.MustNewTable(cols...)
}

// images is what one Apply records of its batch's row images until the whole
// batch has succeeded: those of the slots it appends, and the new images of
// older slots it overwrites in place. Each is a copy of the mutation's row,
// which stays the caller's.
type images struct {
	old      int               // overlay slots before the batch
	added    [][]Value         // the image of slot old+i
	replaced map[int32][]Value // the new image of an older slot
}

// set records slot's current image.
func (im *images) set(slot int32, row []Value) {
	row = slices.Clone(row)
	switch i := int(slot) - im.old; {
	case i == len(im.added):
		im.added = append(im.added, row)
	case i >= 0:
		im.added[i] = row
	default:
		if im.replaced == nil {
			im.replaced = make(map[int32][]Value)
		}
		im.replaced[slot] = row
	}
}

// Span sources of images.fold.
const (
	fromOld = iota
	fromBatch
)

// fold returns the overlay after the batch: one core.ConcatSpans per column
// over the old overlay, which readers may hold and which is never written,
// and the batch's images. A batch that recorded no image (deletes only)
// keeps the old overlay.
func (im *images) fold(vals *core.Table) *core.Table {
	if len(im.added) == 0 && len(im.replaced) == 0 {
		return vals
	}
	slots := make([]int32, 0, len(im.replaced))
	for slot := range im.replaced {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	rows := make([][]Value, 0, len(slots)+len(im.added))
	var spans spanList
	next := 0
	for _, slot := range slots {
		spans.add(fromOld, next, int(slot))
		spans.add(fromBatch, len(rows), len(rows)+1)
		rows = append(rows, im.replaced[slot])
		next = int(slot) + 1
	}
	spans.add(fromOld, next, im.old)
	spans.add(fromBatch, len(rows), len(rows)+len(im.added))
	rows = append(rows, im.added...)
	cols := make([]*core.Column, len(vals.Columns()))
	for ci, c := range vals.Columns() {
		cols[ci] = core.ConcatSpans([]*core.Column{c, imageColumn(c, rows, ci)}, spans)
	}
	return core.MustNewTable(cols...)
}

// imageColumn is column ci of rows, named and typed like c.
func imageColumn(c *core.Column, rows [][]Value, ci int) *core.Column {
	nulls := cells(rows, ci, func(v Value) bool { return v.Null })
	switch c.Kind() {
	case core.Int64:
		return core.NewInt64Column(c.Name(), cells(rows, ci, func(v Value) int64 { return v.Int }), nulls)
	case core.Float64:
		return core.NewFloat64Column(c.Name(), cells(rows, ci, func(v Value) float64 { return v.Float }), nulls)
	case core.String:
		return core.NewStringColumn(c.Name(), cells(rows, ci, func(v Value) string { return v.Str }), nulls)
	}
	return core.NewBoolColumn(c.Name(), cells(rows, ci, func(v Value) bool { return v.Bool }), nulls)
}

// cells returns one field of column ci's cells.
func cells[T any](rows [][]Value, ci int, field func(Value) T) []T {
	out := make([]T, len(rows))
	for i, row := range rows {
		out[i] = field(row[ci])
	}
	return out
}

// Table materializes (lazily, once) the merged table at this epoch:
// surviving base rows in base order — overridden ones patched with their
// overlay image — followed by surviving appended rows in append order. A
// clean snapshot returns the frozen base itself, sharing all storage.
func (s *Snapshot) Table() (*core.Table, error) {
	if s.Clean() {
		return s.f.table, nil
	}
	s.matOnce.Do(func() {
		materializations.Inc()
		s.mat, s.matErr = s.materialize()
	})
	return s.mat, s.matErr
}

// materialize builds the merged table as run copies: the base rows that are
// not copied as they are — deleted ones, and overridden ones whose current
// image is an overlay slot — are collected into one sorted list, and every
// column is the base stretches between them, the overlay images in their
// place and the appended rows at the tail, one typed bulk copy per stretch
// (core.ConcatSpans). The cost is that of copying the columns, whatever the
// overlay holds.
func (s *Snapshot) materialize() (*core.Table, error) {
	base := s.f.table.Columns()
	overlay := s.dirty.vals.Columns()
	spans := s.mergedSpans()
	cols := make([]*core.Column, len(base))
	// One column per task: BenchmarkSnapshotMaterialize reads 3.3 ms against
	// 4.1 ms serial at 200k x 5 on two cores.
	parallel.ForEach(len(base), func(ci int) {
		cols[ci] = core.ConcatSpans([]*core.Column{base[ci], overlay[ci]}, spans)
	})
	return core.NewTable(cols...)
}

// Span sources of mergedSpans.
const (
	fromBase = iota
	fromOverlay
)

// mergedSpans lists, in merged-table order, where each stretch of rows comes
// from: base rows, or overlay slots.
func (s *Snapshot) mergedSpans() []core.RowSpan {
	// A patch is a base row the merged table does not copy: dropped when
	// slot < 0, replaced by that overlay slot otherwise. Every such row is
	// overridden (a row is overridden before it can be gone); a deleted row
	// has no live slot, and were one to exist, gone wins.
	type patch struct{ row, slot int }
	patches := make([]patch, 0, s.numOverridden)
	for r, gone := range s.gone {
		if gone {
			patches = append(patches, patch{r, -1})
		}
	}
	for slot, alive := range s.dirty.alive {
		if t := s.dirty.target[slot]; alive && t >= 0 && !s.rowGone(t) {
			patches = append(patches, patch{int(t), slot})
		}
	}
	slices.SortFunc(patches, func(a, b patch) int { return cmp.Compare(a.row, b.row) })

	spans := make(spanList, 0, 2*len(patches)+2)
	next := 0 // first base row not yet placed
	for _, p := range patches {
		spans.add(fromBase, next, p.row)
		if p.slot >= 0 {
			spans.add(fromOverlay, p.slot, p.slot+1)
		}
		next = p.row + 1
	}
	spans.add(fromBase, next, s.f.table.Rows())
	for slot, alive := range s.dirty.alive {
		if alive && s.dirty.target[slot] < 0 {
			spans.add(fromOverlay, slot, slot+1)
		}
	}
	return spans
}

// spanList is a core.ConcatSpans list under construction.
type spanList []core.RowSpan

// add appends rows [lo, hi) of source src, extending the last span when it
// ends where this one starts.
func (l *spanList) add(src, lo, hi int) {
	if lo >= hi {
		return
	}
	if n := len(*l); n > 0 && (*l)[n-1].Src == src && (*l)[n-1].Hi == lo {
		(*l)[n-1].Hi = hi
		return
	}
	*l = append(*l, core.RowSpan{Src: src, Lo: lo, Hi: hi})
}

// View returns the core.DeltaView describing this snapshot's overlay
// against the merged table. A clean snapshot returns a view with an empty
// overlay rather than nil: evaluating through it is a no-op sort merge (the
// cached frozen order itself), and it carries the epoch, which a compacted
// dataset keeps above 0 so its result entries stay admitted. The view's merged-row ids refer to the table returned by Table(); the two
// are built to agree.
func (s *Snapshot) View() (*core.DeltaView, error) {
	if _, err := s.Table(); err != nil {
		return nil, err
	}
	s.viewOnce.Do(func() {
		s.view = s.buildView()
	})
	return s.view, nil
}

func (s *Snapshot) buildView() *core.DeltaView {
	nb := s.f.table.Rows()
	skip := make([]bool, nb)
	mergedID := make([]int32, nb)
	shift := int32(0)
	for r := 0; r < nb; r++ {
		if s.rowGone(int32(r)) {
			skip[r] = true
			shift++
			mergedID[r] = -1
			continue
		}
		mergedID[r] = int32(r) - shift
		if s.rowOverridden(int32(r)) {
			skip[r] = true
		}
	}
	nbAlive := nb - s.numGone
	var dirtyIDs []int32
	var dirtyEpochs []int64
	appendOrd := int32(0)
	for slot, alive := range s.dirty.alive {
		if !alive {
			continue
		}
		if t := s.dirty.target[slot]; t >= 0 {
			dirtyIDs = append(dirtyIDs, mergedID[t])
		} else {
			dirtyIDs = append(dirtyIDs, int32(nbAlive)+appendOrd)
			appendOrd++
		}
		dirtyEpochs = append(dirtyEpochs, s.dirty.epochs[slot])
	}
	return &core.DeltaView{
		Frozen:      s.f.table,
		Epoch:       s.epoch,
		SkipFrozen:  skip,
		MergedID:    mergedID,
		Dirty:       dirtyIDs,
		DirtyEpochs: dirtyEpochs,
	}
}

// Verify checks the snapshot's internal invariants (tests and the fuzz
// oracle call it after every batch).
func (s *Snapshot) Verify() error {
	t, err := s.Table()
	if err != nil {
		return err
	}
	if t.Rows() != s.Rows() {
		return fmt.Errorf("delta: merged table has %d rows, snapshot accounts for %d", t.Rows(), s.Rows())
	}
	v, err := s.View()
	if err != nil {
		return err
	}
	if v == nil {
		return nil
	}
	clean := 0
	for _, sk := range v.SkipFrozen {
		if !sk {
			clean++
		}
	}
	if clean+len(v.Dirty) != t.Rows() {
		return fmt.Errorf("delta: view covers %d clean + %d dirty rows, merged table has %d", clean, len(v.Dirty), t.Rows())
	}
	return nil
}
