package delta

import (
	"fmt"

	"holistic/internal/core"
)

// store is a small columnar row store matching a base table's schema; the
// overlay's current images and ghosts both live in one.
type store struct {
	cols []colBuf
	n    int
}

// colBuf is one typed column buffer.
type colBuf struct {
	name   string
	kind   core.Kind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool
}

// emptyStore builds a store with t's schema and no rows.
func emptyStore(t *core.Table) store {
	st := store{cols: make([]colBuf, 0, len(t.Columns()))}
	for _, c := range t.Columns() {
		st.cols = append(st.cols, colBuf{name: c.Name(), kind: c.Kind()})
	}
	return st
}

func (st *store) clone() store {
	out := store{cols: make([]colBuf, len(st.cols)), n: st.n}
	for i := range st.cols {
		c := &st.cols[i]
		out.cols[i] = colBuf{
			name:   c.name,
			kind:   c.kind,
			ints:   append([]int64(nil), c.ints...),
			floats: append([]float64(nil), c.floats...),
			strs:   append([]string(nil), c.strs...),
			bools:  append([]bool(nil), c.bools...),
			nulls:  append([]bool(nil), c.nulls...),
		}
	}
	return out
}

func (c *colBuf) appendValue(v Value) {
	c.nulls = append(c.nulls, v.Null)
	switch c.kind {
	case core.Int64:
		c.ints = append(c.ints, v.Int)
	case core.Float64:
		c.floats = append(c.floats, v.Float)
	case core.String:
		c.strs = append(c.strs, v.Str)
	default:
		c.bools = append(c.bools, v.Bool)
	}
}

func (c *colBuf) setValue(i int, v Value) {
	c.nulls[i] = v.Null
	switch c.kind {
	case core.Int64:
		c.ints[i] = v.Int
	case core.Float64:
		c.floats[i] = v.Float
	case core.String:
		c.strs[i] = v.Str
	default:
		c.bools[i] = v.Bool
	}
}

func (c *colBuf) valueAt(i int) Value {
	v := Value{Kind: c.kind, Null: c.nulls[i]}
	switch c.kind {
	case core.Int64:
		v.Int = c.ints[i]
	case core.Float64:
		v.Float = c.floats[i]
	case core.String:
		v.Str = c.strs[i]
	default:
		v.Bool = c.bools[i]
	}
	return v
}

func (st *store) appendRow(row []Value) {
	for i := range st.cols {
		st.cols[i].appendValue(row[i])
	}
	st.n++
}

func (st *store) setRow(i int, row []Value) {
	for ci := range st.cols {
		st.cols[ci].setValue(i, row[ci])
	}
}

func (st *store) appendFrom(src *store, i int) {
	for ci := range st.cols {
		st.cols[ci].appendValue(src.cols[ci].valueAt(i))
	}
	st.n++
}

// keyAt renders row i's cell of column kc as a key string.
func (st *store) keyAt(kc, i int) string {
	c := &st.cols[kc]
	if c.kind == core.Int64 {
		return fmt.Sprintf("i%d", c.ints[i])
	}
	return "s" + c.strs[i]
}

// table converts the store into a core.Table (ghost rows are handed to the
// operator this way). The columns share the store's backing arrays, which
// are immutable once the owning snapshot is published.
func (st *store) table() *core.Table {
	cols := make([]*core.Column, 0, len(st.cols))
	for i := range st.cols {
		c := &st.cols[i]
		switch c.kind {
		case core.Int64:
			cols = append(cols, core.NewInt64Column(c.name, c.ints, c.nulls))
		case core.Float64:
			cols = append(cols, core.NewFloat64Column(c.name, c.floats, c.nulls))
		case core.String:
			cols = append(cols, core.NewStringColumn(c.name, c.strs, c.nulls))
		default:
			cols = append(cols, core.NewBoolColumn(c.name, c.bools, c.nulls))
		}
	}
	return core.MustNewTable(cols...)
}
