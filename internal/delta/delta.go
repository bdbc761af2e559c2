// Package delta adds live mutation to the otherwise immutable datasets the
// window operator evaluates: append, upsert and delete operations accumulate
// in per-table buffers with monotonically increasing epochs, while queries
// keep running against immutable snapshots.
//
// The design splits a mutable table into a frozen base — the table a
// generation was materialized from, whose sort orders and merge sort trees
// stay cached — and a small overlay recording everything that changed since
// the freeze: rows that left the frozen order (deletes and in-place
// overrides) and the current images of changed and appended rows, each
// stamped with the epoch it entered the table. The window operator
// (core.Options.Delta) merges the frozen sort order with a sorted run over
// the overlay instead of re-sorting, and keys per-partition structures by
// the partition's values, its newest row epoch and its row count, so
// partitions the mutation stream never touched keep hitting the structure
// cache across epochs.
//
// Writers are serialized; every Apply publishes a brand-new immutable
// Snapshot via an atomic pointer, so any number of concurrent readers see a
// consistent table at exactly one epoch with no locking on the read path. A
// background compactor (StartCompactor) folds a grown overlay back into a
// new frozen generation and swaps it in, holding the writers' lock for the
// rebuild so that no batch can land between the fold and the swap; readers
// keep the old snapshot until they load the new one.
//
// Mutations, batches, epoch conflicts, compactions and materializations are
// counted process-wide in obs.Default (the windowd_delta_* families), each
// declared beside the code that counts it.
package delta

import (
	"fmt"
	"sync"
	"sync/atomic"

	"holistic/internal/core"
	"holistic/internal/obs"
)

// Mutation counters, process-wide in obs.Default (all Buffers in the
// process): successful batches and their mutations by op, and the batches
// an epoch check refused.
var (
	mutationsByOp = obs.Default.NewCounter("windowd_delta_mutations_total",
		"Mutations applied to live datasets, by op: append, upsert, delete.", "op")
	appendsTotal = mutationsByOp.With("append")
	upsertsTotal = mutationsByOp.With("upsert")
	deletesTotal = mutationsByOp.With("delete")
	batchesTotal = obs.Default.NewCounter("windowd_delta_batches_total",
		"Mutation batches applied (each advances its dataset's epoch by one).").With()
	conflictsTotal = obs.Default.NewCounter("windowd_delta_conflicts_total",
		"Mutation batches rejected for a stale expected epoch (HTTP 409).").With()
)

// Op is a mutation kind.
type Op uint8

const (
	// OpAppend adds a new row at the end of the table.
	OpAppend Op = iota + 1
	// OpUpsert replaces the row with the same key in place (keeping its
	// logical position), or appends when the key is new. Requires a key
	// column.
	OpUpsert
	// OpDelete removes the row with the same key; later rows shift up.
	// Requires a key column.
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpAppend:
		return "append"
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Value is one typed cell of a mutation row. Kind must match the column the
// value is destined for; Null values still carry their column's kind.
type Value struct {
	Kind  core.Kind
	Null  bool
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Int64Value builds a non-null INT64 cell.
func Int64Value(v int64) Value { return Value{Kind: core.Int64, Int: v} }

// Float64Value builds a non-null FLOAT64 cell.
func Float64Value(v float64) Value { return Value{Kind: core.Float64, Float: v} }

// StringValue builds a non-null STRING cell.
func StringValue(v string) Value { return Value{Kind: core.String, Str: v} }

// BoolValue builds a non-null BOOL cell.
func BoolValue(v bool) Value { return Value{Kind: core.Bool, Bool: v} }

// NullValue builds a NULL cell of the given kind.
func NullValue(k core.Kind) Value { return Value{Kind: k, Null: true} }

// Mutation is one operation against a buffered table. Row is aligned with
// the base table's columns (declaration order, one Value per column); for
// OpDelete only the key column's cell is consulted.
type Mutation struct {
	Op  Op
	Row []Value
}

// EpochConflictError reports an Apply whose expected epoch did not match the
// buffer's current epoch — another writer got there first. The caller should
// re-read the current state and retry; windowd surfaces it as HTTP 409.
type EpochConflictError struct {
	Expected, Current int64
}

func (e *EpochConflictError) Error() string {
	return fmt.Sprintf("delta: epoch conflict: expected %d, buffer is at %d", e.Expected, e.Current)
}

// Options tunes a Buffer.
type Options struct {
	// CompactRows is the overlay size (delta rows: changed images,
	// superseded images and departed base rows) at which the background
	// compactor folds the overlay into a new frozen generation. <= 0 picks
	// max(1024, baseRows/8) adaptively.
	CompactRows int
}

// loc is a key's current location: a frozen base row or an overlay slot.
type loc struct {
	dirty bool
	idx   int32
}

// Buffer is a mutable table: a frozen base plus an epoch-stamped overlay.
// Apply serializes writers; Snapshot is wait-free and safe from any
// goroutine.
type Buffer struct {
	opt    Options
	keyCol string
	keyKd  core.Kind

	mu     sync.Mutex // serializes Apply and Compact
	keyIdx map[string]loc
	cur    atomic.Pointer[Snapshot]
}

// NewBuffer wraps base in a mutation buffer. keyColumn names the unique,
// non-null INT64 or STRING column upserts and deletes address rows by; an
// empty keyColumn makes the buffer append-only (upsert and delete are
// rejected). The buffer takes ownership of base: it must not be mutated by
// the caller afterwards.
func NewBuffer(base *core.Table, keyColumn string, opt Options) (*Buffer, error) {
	b := &Buffer{opt: opt, keyCol: keyColumn}
	if keyColumn != "" {
		col := base.Column(keyColumn)
		if col == nil {
			return nil, fmt.Errorf("delta: key column %q not in table", keyColumn)
		}
		if col.Kind() != core.Int64 && col.Kind() != core.String {
			return nil, fmt.Errorf("delta: key column %q is %v; keys must be INT64 or STRING", keyColumn, col.Kind())
		}
		b.keyKd = col.Kind()
		idx, err := buildKeyIndex(base, keyColumn)
		if err != nil {
			return nil, err
		}
		b.keyIdx = idx
	}
	snap := &Snapshot{f: &frozen{table: base}}
	snap.dirty.vals = noImages(base)
	b.cur.Store(snap)
	return b, nil
}

// buildKeyIndex maps every base row's key to its row, rejecting NULL and
// duplicate keys.
func buildKeyIndex(t *core.Table, keyColumn string) (map[string]loc, error) {
	col := t.Column(keyColumn)
	idx := make(map[string]loc, t.Rows())
	for i := 0; i < t.Rows(); i++ {
		if col.IsNull(i) {
			return nil, fmt.Errorf("delta: key column %q has a NULL at row %d", keyColumn, i)
		}
		k := keyOfColumn(col, i)
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("delta: key column %q has a duplicate at row %d", keyColumn, i)
		}
		idx[k] = loc{idx: int32(i)}
	}
	return idx, nil
}

// keyOfColumn renders row i's key cell.
func keyOfColumn(col *core.Column, i int) string {
	if col.Kind() == core.Int64 {
		return fmt.Sprintf("i%d", col.Int64(i))
	}
	return "s" + col.StringAt(i)
}

// keyOfValue renders a mutation row's key cell.
func keyOfValue(v Value) string {
	if v.Kind == core.Int64 {
		return fmt.Sprintf("i%d", v.Int)
	}
	return "s" + v.Str
}

// Snapshot returns the current immutable state. The returned snapshot never
// changes; concurrent Applies publish new snapshots instead.
func (b *Buffer) Snapshot() *Snapshot { return b.cur.Load() }

// Epoch returns the current epoch: 0 for a freshly frozen buffer, +1 per
// applied batch. Epochs keep increasing across compactions.
func (b *Buffer) Epoch() int64 { return b.cur.Load().epoch }

// Apply applies one batch of mutations atomically, advancing the epoch by
// one. When expectedEpoch is >= 0 the batch only applies if it matches the
// current epoch (optimistic concurrency; *EpochConflictError otherwise — the
// windowd 409). A failed batch leaves the buffer at its previous state. The
// new epoch is returned; on error, the current (unchanged) epoch.
func (b *Buffer) Apply(expectedEpoch int64, muts []Mutation) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.cur.Load()
	if expectedEpoch >= 0 && expectedEpoch != cur.epoch {
		conflictsTotal.Inc()
		return cur.epoch, &EpochConflictError{Expected: expectedEpoch, Current: cur.epoch}
	}
	if len(muts) == 0 {
		return cur.epoch, nil
	}
	next := cur.cloneForApply()
	im := images{old: len(cur.dirty.target)}
	var nAppend, nUpsert, nDelete int64
	for i := range muts {
		if err := b.applyOne(next, &im, &muts[i]); err != nil {
			// The shared key index may have been partially updated; restore
			// it from the still-current snapshot (error path only).
			b.restoreKeyIndex(cur)
			return cur.epoch, fmt.Errorf("delta: mutation %d: %w", i, err)
		}
		switch muts[i].Op {
		case OpAppend:
			nAppend++
		case OpUpsert:
			nUpsert++
		case OpDelete:
			nDelete++
		}
	}
	next.dirty.vals = im.fold(next.dirty.vals)
	b.cur.Store(next)
	batchesTotal.Inc()
	appendsTotal.Add(nAppend)
	upsertsTotal.Add(nUpsert)
	deletesTotal.Add(nDelete)
	return next.epoch, nil
}

// applyOne applies one mutation to the in-construction snapshot, recording
// its row image in im and updating the buffer's key index alongside.
func (b *Buffer) applyOne(s *Snapshot, im *images, m *Mutation) error {
	cols := s.f.table.Columns()
	if len(m.Row) != len(cols) {
		return fmt.Errorf("%s row has %d cells, table has %d columns", m.Op, len(m.Row), len(cols))
	}
	for i, c := range cols {
		if m.Row[i].Kind != c.Kind() {
			return fmt.Errorf("%s cell %q is %v, column is %v", m.Op, c.Name(), m.Row[i].Kind, c.Kind())
		}
	}
	var key string
	if b.keyCol != "" {
		kv := m.Row[s.keyColPos(b.keyCol)]
		if kv.Null {
			return fmt.Errorf("%s row has a NULL key (%s)", m.Op, b.keyCol)
		}
		key = keyOfValue(kv)
	}
	switch m.Op {
	case OpAppend:
		if b.keyCol != "" {
			if _, exists := b.keyIdx[key]; exists {
				return fmt.Errorf("append of existing key %s=%s", b.keyCol, key[1:])
			}
		}
		slot := s.dirty.append(-1, s.epoch)
		im.set(slot, m.Row)
		if b.keyCol != "" {
			b.keyIdx[key] = loc{dirty: true, idx: slot}
		}
		return nil
	case OpUpsert:
		if b.keyCol == "" {
			return fmt.Errorf("upsert requires a key column")
		}
		l, exists := b.keyIdx[key]
		if !exists {
			slot := s.dirty.append(-1, s.epoch)
			im.set(slot, m.Row)
			b.keyIdx[key] = loc{dirty: true, idx: slot}
			return nil
		}
		if l.dirty {
			// The previous image is superseded and the slot is updated in
			// place: the row keeps its logical position.
			s.superseded++
			s.dirty.epochs[l.idx] = s.epoch
			im.set(l.idx, m.Row)
			return nil
		}
		// First override of a frozen base row: the frozen image leaves the
		// frozen sort order, the new image lives in the overlay at the same
		// logical position.
		s.markOverridden(l.idx)
		slot := s.dirty.append(l.idx, s.epoch)
		im.set(slot, m.Row)
		b.keyIdx[key] = loc{dirty: true, idx: slot}
		return nil
	case OpDelete:
		if b.keyCol == "" {
			return fmt.Errorf("delete requires a key column")
		}
		l, exists := b.keyIdx[key]
		if !exists {
			return fmt.Errorf("delete of unknown key %s=%s", b.keyCol, key[1:])
		}
		if l.dirty {
			s.superseded++
			if base := s.dirty.target[l.idx]; base >= 0 {
				// The slot was an override: the underlying base row is now
				// truly gone and later merged rows shift up.
				s.markGone(base)
			}
			s.dirty.alive[l.idx] = false
		} else {
			// A base row deleted straight from the frozen state.
			s.markOverridden(l.idx)
			s.markGone(l.idx)
		}
		delete(b.keyIdx, key)
		return nil
	}
	return fmt.Errorf("unknown op %v", m.Op)
}

// restoreKeyIndex rebuilds the key index from a snapshot after a failed
// batch partially updated it.
func (b *Buffer) restoreKeyIndex(s *Snapshot) {
	if b.keyCol == "" {
		return
	}
	col := s.f.table.Column(b.keyCol)
	idx := make(map[string]loc, s.f.table.Rows())
	for i := 0; i < s.f.table.Rows(); i++ {
		if s.rowGone(int32(i)) || s.rowOverridden(int32(i)) {
			continue
		}
		idx[keyOfColumn(col, i)] = loc{idx: int32(i)}
	}
	imageKeys := s.dirty.vals.Column(b.keyCol)
	for slot, alive := range s.dirty.alive {
		if alive {
			idx[keyOfColumn(imageKeys, slot)] = loc{dirty: true, idx: int32(slot)}
		}
	}
	b.keyIdx = idx
}
