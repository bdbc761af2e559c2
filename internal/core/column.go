// Package core implements the window operator that ties the paper's pieces
// together (§5): it partitions and orders the input, runs the per-function
// preprocessing (package preprocess), builds each function's index
// structure (a merge sort tree or range tree; prefix sums for SUM and AVG),
// and probes it for every row, in parallel, with SQL NULL, FILTER, IGNORE
// NULLS and frame-exclusion semantics.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Kind is a column's physical type.
type Kind int

const (
	// Int64 covers SQL integers, decimals scaled to integers, dates and
	// timestamps (as days/microseconds since epoch).
	Int64 Kind = iota
	// Float64 covers SQL doubles.
	Float64
	// String covers SQL text.
	String
	// Bool covers SQL booleans (used by FILTER clauses).
	Bool
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case String:
		return "STRING"
	case Bool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is a typed column with an optional NULL mask. A column is immutable:
// the constructors take ownership of the value and mask slices they are given.
// The one exception is a function's output, which a run fills in place
// (newColumn) and which is immutable once the run finishes it.
type Column struct {
	name   string
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool // nil exactly when the column holds no NULL
}

// nullMask normalises a caller-supplied NULL mask: a mask without a set bit
// becomes nil, so "does this column hold NULLs" is a nil check on every
// later use rather than a scan of the mask.
func nullMask(nulls []bool) []bool {
	if slices.Contains(nulls, true) {
		return nulls
	}
	return nil
}

// NewInt64Column builds an INT64 column. nulls may be nil.
func NewInt64Column(name string, values []int64, nulls []bool) *Column {
	return &Column{name: name, kind: Int64, ints: values, nulls: nullMask(nulls)}
}

// NewFloat64Column builds a FLOAT64 column. nulls may be nil.
func NewFloat64Column(name string, values []float64, nulls []bool) *Column {
	return &Column{name: name, kind: Float64, floats: values, nulls: nullMask(nulls)}
}

// NewStringColumn builds a STRING column. nulls may be nil.
func NewStringColumn(name string, values []string, nulls []bool) *Column {
	return &Column{name: name, kind: String, strs: values, nulls: nullMask(nulls)}
}

// NewBoolColumn builds a BOOL column. nulls may be nil.
func NewBoolColumn(name string, values []bool, nulls []bool) *Column {
	return &Column{name: name, kind: Bool, bools: values, nulls: nullMask(nulls)}
}

// newColumn returns an n-row column of zero values and an all-false NULL
// mask for a run to fill in place. Rows are written at their original row
// index (the evaluator knows the original index of every sorted position),
// so no separate scatter pass is needed; writes target disjoint rows and are
// safe to issue concurrently. finish drops a mask that no row set.
func newColumn(name string, kind Kind, n int) *Column {
	c := &Column{name: name, kind: kind, nulls: make([]bool, n)}
	switch kind {
	case Int64:
		c.ints = make([]int64, n)
	case Float64:
		c.floats = make([]float64, n)
	case String:
		c.strs = make([]string, n)
	case Bool:
		c.bools = make([]bool, n)
	}
	return c
}

func (c *Column) setInt(row int, v int64)     { c.ints[row] = v }
func (c *Column) setFloat(row int, v float64) { c.floats[row] = v }
func (c *Column) setNull(row int)             { c.nulls[row] = true }

// copyFrom copies src's value at srcRow into row dstRow of a column being
// filled, preserving NULLs. src must have the column's kind.
func (c *Column) copyFrom(src *Column, srcRow, dstRow int) {
	if src.IsNull(srcRow) {
		c.nulls[dstRow] = true
		return
	}
	switch c.kind {
	case Int64:
		c.ints[dstRow] = src.ints[srcRow]
	case Float64:
		c.floats[dstRow] = src.floats[srcRow]
	case String:
		c.strs[dstRow] = src.strs[srcRow]
	case Bool:
		c.bools[dstRow] = src.bools[srcRow]
	}
}

// finish ends a run's writes into the column: from here on it is immutable.
func (c *Column) finish() { c.nulls = nullMask(c.nulls) }

// columnHeaderBytes is the Column struct itself: the name's string header,
// the kind word and five 24-byte slice headers. At a median partition of 18
// rows it is as large as a cached result's values, so it is charged.
const columnHeaderBytes = 16 + 8 + 5*24

// Bytes is the column's resident size, for cache accounting: the struct,
// then what its slices hold (a string as its header and its bytes).
func (c *Column) Bytes() int64 {
	total := columnHeaderBytes + int64(len(c.nulls)+len(c.bools)) + 8*int64(len(c.ints)+len(c.floats))
	for _, s := range c.strs {
		total += 16 + int64(len(s))
	}
	return total
}

// RowSpan is rows [Lo, Hi) of source column Src, an index into the sources
// handed to ConcatSpans.
type RowSpan struct {
	Src, Lo, Hi int
}

// ConcatSpans builds the column that holds the given spans of srcs' rows, in
// order: one typed bulk copy per span, no per-row dispatch. The sources share
// one kind and the result takes srcs[0]'s name. A NULL row's value is stored
// as zero, whatever the source held under its mask, and the result carries a
// mask only if a NULL was copied.
func ConcatSpans(srcs []*Column, spans []RowSpan) *Column {
	out := &Column{name: srcs[0].name, kind: srcs[0].kind}
	rows := 0
	for _, sp := range spans {
		rows += sp.Hi - sp.Lo
	}
	for _, src := range srcs {
		if src.nulls != nil {
			out.nulls = make([]bool, 0, rows)
			break
		}
	}
	if out.nulls != nil {
		for _, sp := range spans {
			if m := srcs[sp.Src].nulls; m != nil {
				out.nulls = append(out.nulls, m[sp.Lo:sp.Hi]...)
			} else {
				out.nulls = out.nulls[:len(out.nulls)+sp.Hi-sp.Lo] // fresh capacity is all false
			}
		}
		out.nulls = nullMask(out.nulls)
	}
	switch out.kind {
	case Int64:
		out.ints = concatSpans(srcs, spans, rows, out.nulls, func(c *Column) []int64 { return c.ints })
	case Float64:
		out.floats = concatSpans(srcs, spans, rows, out.nulls, func(c *Column) []float64 { return c.floats })
	case String:
		out.strs = concatSpans(srcs, spans, rows, out.nulls, func(c *Column) []string { return c.strs })
	default:
		out.bools = concatSpans(srcs, spans, rows, out.nulls, func(c *Column) []bool { return c.bools })
	}
	return out
}

func concatSpans[T any](srcs []*Column, spans []RowSpan, rows int, nulls []bool, values func(*Column) []T) []T {
	out := make([]T, 0, rows)
	for _, sp := range spans {
		out = append(out, values(srcs[sp.Src])[sp.Lo:sp.Hi]...)
	}
	var zero T
	for i, null := range nulls {
		if null {
			out[i] = zero
		}
	}
	return out
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Renamed returns a shallow copy of the column under a new name, sharing
// the value storage. Renaming to the current name returns the receiver.
func (c *Column) Renamed(name string) *Column {
	if c.name == name {
		return c
	}
	cp := *c
	cp.name = name
	return &cp
}

// Kind returns the column's physical type.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.kind {
	case Int64:
		return len(c.ints)
	case Float64:
		return len(c.floats)
	case String:
		return len(c.strs)
	default:
		return len(c.bools)
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.nulls != nil && c.nulls[i] }

// HasNulls reports whether the column holds at least one NULL.
func (c *Column) HasNulls() bool { return c.nulls != nil }

// Int64 returns row i of an INT64 column.
func (c *Column) Int64(i int) int64 { return c.ints[i] }

// Float64 returns row i of a FLOAT64 column.
func (c *Column) Float64(i int) float64 { return c.floats[i] }

// String returns row i of a STRING column.
func (c *Column) StringAt(i int) string { return c.strs[i] }

// Bool returns row i of a BOOL column.
func (c *Column) Bool(i int) bool { return c.bools[i] }

// Numeric returns row i as float64 (INT64 or FLOAT64 columns).
func (c *Column) Numeric(i int) float64 {
	if c.kind == Int64 {
		return float64(c.ints[i])
	}
	return c.floats[i]
}

// compareValues compares the non-NULL values at rows i and j.
func (c *Column) compareValues(i, j int) int {
	switch c.kind {
	case Int64:
		return cmp.Compare(c.ints[i], c.ints[j])
	case Float64:
		return floatCompare(c.floats[i], c.floats[j])
	case String:
		return cmp.Compare(c.strs[i], c.strs[j])
	default:
		a, b := 0, 0
		if c.bools[i] {
			a = 1
		}
		if c.bools[j] {
			b = 1
		}
		return cmp.Compare(a, b)
	}
}

// Compare orders rows i and j under the given direction, with PostgreSQL
// NULL placement: NULLs compare as larger than every value, and the
// descending direction inverts the whole ordering — so NULLs come last
// ascending and first descending (unless nullsLargest is cleared, which
// models the NULLS FIRST/LAST override).
func (c *Column) Compare(i, j int, desc, nullsLargest bool) int {
	var r int
	ni, nj := c.IsNull(i), c.IsNull(j)
	switch {
	case ni && nj:
		r = 0
	case ni:
		r = 1
	case nj:
		r = -1
	default:
		r = c.compareValues(i, j)
	}
	if (ni || nj) && !nullsLargest {
		r = -r
	}
	if desc {
		return -r
	}
	return r
}

// equalAt reports whether rows i and j hold equal values (NULLs are equal to
// NULLs, per SQL's IS NOT DISTINCT FROM, which is what grouping and
// DISTINCT use).
func (c *Column) equalAt(i, j int) bool {
	ni, nj := c.IsNull(i), c.IsNull(j)
	if ni || nj {
		return ni && nj
	}
	return c.compareValues(i, j) == 0
}

// Table is a named collection of equal-length columns.
type Table struct {
	cols  []*Column
	index map[string]*Column
	rows  int
}

// NewTable builds a table from columns. All columns must have equal length
// and distinct names.
func NewTable(cols ...*Column) (*Table, error) {
	t := &Table{index: make(map[string]*Column, len(cols))}
	for i, c := range cols {
		if c == nil {
			return nil, fmt.Errorf("core: column %d is nil", i)
		}
		if _, dup := t.index[c.name]; dup {
			return nil, fmt.Errorf("core: duplicate column %q", c.name)
		}
		if i == 0 {
			t.rows = c.Len()
		} else if c.Len() != t.rows {
			return nil, fmt.Errorf("core: column %q has %d rows, want %d", c.name, c.Len(), t.rows)
		}
		t.cols = append(t.cols, c)
		t.index[c.name] = c
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error, for tests and examples.
// Production call sites use NewTable and handle the error.
func MustNewTable(cols ...*Column) *Table {
	t, err := NewTable(cols...)
	if err != nil {
		// Invariant: Must* contract: the caller opted into panicking on malformed columns instead of handling the error
		panic(err)
	}
	return t
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column { return t.index[name] }

// Columns returns the table's columns in declaration order.
func (t *Table) Columns() []*Column { return t.cols }

// hashAt returns a 64-bit hash of the value at row i, consistent with
// equalAt: equal values (including -0.0/0.0 and NaN/NaN pairs) hash
// equally. The distinct-aggregate preprocessing sorts these hashes instead
// of the values themselves (§6.7: "To make the sorting step independent of
// the data types used in the query, we do not sort the values themselves
// but only their hashes"); the value comparator only breaks hash ties, so
// collisions cost time, never correctness.
func (c *Column) hashAt(i int) uint64 {
	if c.IsNull(i) {
		return 0x9e3779b97f4a7c15
	}
	switch c.kind {
	case Int64:
		return mix64(uint64(c.ints[i]))
	case Float64:
		f := c.floats[i]
		if f == 0 {
			f = 0 // canonicalise -0.0
		}
		if math.IsNaN(f) {
			return mix64(0x7ff8000000000001)
		}
		return mix64(math.Float64bits(f))
	case String:
		// FNV-1a.
		h := uint64(14695981039346656037)
		for j := 0; j < len(c.strs[i]); j++ {
			h ^= uint64(c.strs[i][j])
			h *= 1099511628211
		}
		return h
	default:
		if c.bools[i] {
			return mix64(1)
		}
		return mix64(2)
	}
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// floatCompare orders float64s with NaN as the largest value, matching
// PostgreSQL's SQL ordering rather than Go's cmp.Compare (which sorts NaN
// first).
func floatCompare(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
