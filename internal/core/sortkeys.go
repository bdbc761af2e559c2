package core

import (
	"cmp"
	"math"

	"holistic/internal/arena"
	"holistic/internal/preprocess"
	"holistic/internal/sortutil"
)

// sortCol is one sort column: a SortKey (or a PARTITION BY column, which
// sorts ascending with NULLs largest) resolved against a table.
type sortCol struct {
	col          *Column
	desc         bool
	nullsLargest bool
}

// windowSortCols resolves a window's (PARTITION BY, ORDER BY) into sort
// columns, most significant first.
func windowSortCols(t *Table, w *WindowSpec) []sortCol {
	cols := make([]sortCol, 0, len(w.PartitionBy)+len(w.OrderBy))
	for _, name := range w.PartitionBy {
		cols = append(cols, sortCol{col: t.Column(name), nullsLargest: true})
	}
	return appendOrderCols(cols, t, w.OrderBy)
}

func appendOrderCols(cols []sortCol, t *Table, keys []SortKey) []sortCol {
	for _, k := range keys {
		cols = append(cols, sortCol{col: t.Column(k.Column), desc: k.Desc, nullsLargest: !k.NullsSmallest})
	}
	return cols
}

// radixSortable reports whether every sort column normalises to fixed-width
// key words. A STRING column does not: its sorts stay on the comparator
// merge sort (preprocess.SortIndices).
func radixSortable(cols []sortCol) bool {
	for _, sc := range cols {
		if sc.col.kind == String {
			return false
		}
	}
	return true
}

// windowSortIndices sorts the table's rows by (PARTITION BY, ORDER BY),
// ties by ascending row index.
func windowSortIndices(t *Table, w *WindowSpec, opt Options) ([]int32, error) {
	return sortRows(t.Rows(), nil, windowSortCols(t, w), opt)
}

// sortRows returns the positions 0..n-1 sorted by cols, ties by ascending
// table row; position i stands for table row rows[i], or for row i when
// rows is nil. It is the one sort entry point: the window sort, the delta
// path's dirty run and the function-order sorts all come here. Fixed-width
// columns take the typed key words (sortByKeyWords); a STRING column sends
// the sort to the comparator merge sort (preprocess.SortIndicesContext)
// over the same columns.
func sortRows(n int, rows []int32, cols []sortCol, opt Options) ([]int32, error) {
	if radixSortable(cols) {
		return sortByKeyWords(n, rows, cols, opt)
	}
	return preprocess.SortIndicesContext(opt.Context, n, func(a, b int) int {
		ra, rb := a, b
		if rows != nil {
			ra, rb = int(rows[a]), int(rows[b])
		}
		for _, sc := range cols {
			if c := sc.col.Compare(ra, rb, sc.desc, sc.nullsLargest); c != 0 {
				return c
			}
		}
		return cmp.Compare(ra, rb)
	})
}

// sortByKeyWords is sortRows for cols that are radixSortable.
//
// Every column is normalised to order-preserving uint64 words — direction
// and NULL placement folded in — and the (word, position) pairs go through
// the stable radix sort once per word, least significant column first
// (Do/Graefe/Naughton's normalised keys, sorted LSD across columns). The
// words live in pooled scratch and every word's sort scatters through one
// sortutil.Scratch; only the returned order is allocated. The context is
// checked between words and inside each large sort, whose buckets run on
// its workers.
func sortByKeyWords(n int, rows []int32, cols []sortCol, opt Options) ([]int32, error) {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = i32(i)
	}
	words := arena.Uint64s.Get(n)
	defer arena.Uint64s.Put(words)
	scratch := sortutil.NewScratch(n)
	defer scratch.Release()
	sortWords := func() error {
		if err := opt.ctxErr(); err != nil {
			return err
		}
		return scratch.SortPairs(opt.Context, words, idx)
	}
	if rows != nil {
		// The tiebreak is the table row, not the position: it is the least
		// significant word. (Positions already in row order cost one scan.)
		for i, pos := range idx {
			words[i] = uint64(rows[pos])
		}
		if err := sortWords(); err != nil {
			return nil, err
		}
	}
	for c := len(cols) - 1; c >= 0; c-- {
		sc := cols[c]
		sc.valueWords(words, idx, rows)
		if err := sortWords(); err != nil {
			return nil, err
		}
		if sc.col.HasNulls() {
			// The value words of INT64 and FLOAT64 use every bit pattern, so
			// NULL placement is a word of its own, one bit wide: a single
			// extra scatter pass, paid only by columns that hold NULLs.
			sc.nullWords(words, idx, rows)
			if err := sortWords(); err != nil {
				return nil, err
			}
		}
	}
	return idx, nil
}

// rowAt maps a position to its table row (see sortByKeyWords).
func rowAt(rows []int32, pos int32) int {
	if rows == nil {
		return int(pos)
	}
	return int(rows[pos])
}

// valueWords fills words[i] with the order-preserving word of the column's
// value at position idx[i]: ascending word order is the column's order
// under the key's direction. NULL rows all get word 0 (nullWords places
// them).
func (sc sortCol) valueWords(words []uint64, idx, rows []int32) {
	var flip uint64
	if sc.desc {
		flip = ^uint64(0)
	}
	col := sc.col
	switch col.kind {
	case Int64:
		for i, pos := range idx {
			words[i] = (uint64(col.ints[rowAt(rows, pos)]) ^ 1<<63) ^ flip
		}
	case Float64:
		for i, pos := range idx {
			words[i] = floatSortWord(col.floats[rowAt(rows, pos)]) ^ flip
		}
	case Bool:
		for i, pos := range idx {
			words[i] = flip
			if col.bools[rowAt(rows, pos)] {
				words[i] = ^flip
			}
		}
	}
	if col.HasNulls() {
		for i, pos := range idx {
			if col.nulls[rowAt(rows, pos)] {
				words[i] = 0
			}
		}
	}
}

// nullWords fills words[i] with the NULL-placement bit of position idx[i],
// per Column.Compare: NULLs sort after every value exactly when
// nullsLargest differs from desc.
func (sc sortCol) nullWords(words []uint64, idx, rows []int32) {
	var ifNull, ifValue uint64 = 0, 1
	if sc.nullsLargest != sc.desc {
		ifNull, ifValue = 1, 0
	}
	for i, pos := range idx {
		words[i] = ifValue
		if sc.col.nulls[rowAt(rows, pos)] {
			words[i] = ifNull
		}
	}
}

// floatSortWord maps a float64 to a word whose unsigned order is
// floatCompare's: -0.0 and +0.0 share a word, and every NaN maps to the one
// largest word.
func floatSortWord(f float64) uint64 {
	if math.IsNaN(f) {
		return ^uint64(0)
	}
	if f == 0 {
		f = 0 // canonicalise -0.0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b // negative: larger magnitude sorts first
	}
	return b | 1<<63
}
