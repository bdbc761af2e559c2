package delta

import "holistic/internal/core"

// ReferenceMaterialize is the per-row materialisation Snapshot.materialize
// replaced, kept as its oracle: one map lookup, one kind switch and one
// append per row per column. It shares no code with the span copies, so cell
// and mask identity with it is the contract, not a tautology.
func ReferenceMaterialize(s *Snapshot) (*core.Table, error) {
	nb := s.f.table.Rows()
	// slotOfBase maps overridden base rows to their current overlay image.
	slotOfBase := make(map[int32]int32)
	for slot, a := range s.dirty.alive {
		if a && s.dirty.target[slot] >= 0 {
			slotOfBase[s.dirty.target[slot]] = int32(slot)
		}
	}
	nOut := s.Rows()
	cols := make([]*core.Column, 0, len(s.f.table.Columns()))
	for ci, base := range s.f.table.Columns() {
		db := &s.dirty.vals.cols[ci]
		bld := newRefColBuilder(base.Name(), base.Kind(), nOut)
		for r := int32(0); int(r) < nb; r++ {
			if s.rowGone(r) {
				continue
			}
			if slot, ok := slotOfBase[r]; ok {
				bld.addFromBuf(db, int(slot))
				continue
			}
			bld.addFromColumn(base, int(r))
		}
		for slot := 0; slot < s.dirty.vals.n; slot++ {
			if s.dirty.alive[slot] && s.dirty.target[slot] < 0 {
				bld.addFromBuf(db, slot)
			}
		}
		cols = append(cols, bld.column())
	}
	return core.NewTable(cols...)
}

// Materialize builds the merged table anew on every call, bypassing the
// once-per-snapshot cache of Table, so tests and benchmarks can time it.
func (s *Snapshot) Materialize() (*core.Table, error) { return s.materialize() }

// refColBuilder accumulates one merged output column, a row at a time.
type refColBuilder struct {
	name    string
	kind    core.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool
	anyNull bool
}

func newRefColBuilder(name string, kind core.Kind, capacity int) *refColBuilder {
	b := &refColBuilder{name: name, kind: kind, nulls: make([]bool, 0, capacity)}
	switch kind {
	case core.Int64:
		b.ints = make([]int64, 0, capacity)
	case core.Float64:
		b.floats = make([]float64, 0, capacity)
	case core.String:
		b.strs = make([]string, 0, capacity)
	default:
		b.bools = make([]bool, 0, capacity)
	}
	return b
}

func (b *refColBuilder) addFromColumn(c *core.Column, i int) {
	null := c.IsNull(i)
	b.nulls = append(b.nulls, null)
	b.anyNull = b.anyNull || null
	switch b.kind {
	case core.Int64:
		var v int64
		if !null {
			v = c.Int64(i)
		}
		b.ints = append(b.ints, v)
	case core.Float64:
		var v float64
		if !null {
			v = c.Float64(i)
		}
		b.floats = append(b.floats, v)
	case core.String:
		var v string
		if !null {
			v = c.StringAt(i)
		}
		b.strs = append(b.strs, v)
	default:
		var v bool
		if !null {
			v = c.Bool(i)
		}
		b.bools = append(b.bools, v)
	}
}

func (b *refColBuilder) addFromBuf(c *colBuf, i int) {
	null := c.nulls[i]
	b.nulls = append(b.nulls, null)
	b.anyNull = b.anyNull || null
	switch b.kind {
	case core.Int64:
		b.ints = append(b.ints, c.ints[i])
	case core.Float64:
		b.floats = append(b.floats, c.floats[i])
	case core.String:
		b.strs = append(b.strs, c.strs[i])
	default:
		b.bools = append(b.bools, c.bools[i])
	}
}

func (b *refColBuilder) column() *core.Column {
	nulls := b.nulls
	if !b.anyNull {
		nulls = nil
	}
	switch b.kind {
	case core.Int64:
		return core.NewInt64Column(b.name, b.ints, nulls)
	case core.Float64:
		return core.NewFloat64Column(b.name, b.floats, nulls)
	case core.String:
		return core.NewStringColumn(b.name, b.strs, nulls)
	default:
		return core.NewBoolColumn(b.name, b.bools, nulls)
	}
}
