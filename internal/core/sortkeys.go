package core

import (
	"math"

	"holistic/internal/arena"
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

// windowSortIndices sorts the table's rows by (PARTITION BY, ORDER BY),
// ties by ascending row index.
func windowSortIndices(t *Table, w *WindowSpec, opt Options) ([]int32, error) {
	return sortRows(t.Rows(), nil, windowSortCols(t, w), opt)
}

// sortRows returns the positions 0..n-1 sorted by cols, ties by ascending
// table row; position i stands for table row rows[i], or for row i when
// rows is nil. It is the one sort entry point: the window sort, the delta
// path's dirty run and the function-order sorts all come here.
//
// Every column is normalised to order-preserving uint64 words — direction
// and NULL placement folded in, a STRING column as the dense rank of its
// string (stringRanks) — and the (word, position) pairs go through the
// stable radix sort once per word, least significant column first
// (Do/Graefe/Naughton's normalised keys, sorted LSD across columns). The
// words live in pooled scratch and every word's sort scatters through one
// sortutil.Scratch; only the returned order is allocated. The context is
// checked between words and inside each large sort, whose buckets run on
// its workers.
func sortRows(n int, rows []int32, cols []sortCol, opt Options) ([]int32, error) {
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
		if err := sc.valueWords(words, idx, rows, scratch, opt); err != nil {
			return nil, err
		}
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

// rowAt maps a position to its table row (see sortRows).
func rowAt(rows []int32, pos int32) int {
	if rows == nil {
		return int(pos)
	}
	return int(rows[pos])
}

// valueWords fills words[i] with the order-preserving word of the column's
// value at position idx[i]: ascending word order is the column's order
// under the key's direction. NULL rows all get word 0 (nullWords places
// them). Only a STRING column's rank sort can fail, on an ended context.
func (sc sortCol) valueWords(words []uint64, idx, rows []int32, scratch *sortutil.Scratch, opt Options) error {
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
	case String:
		if err := stringRanks(words, idx, rows, col.strs, flip, scratch, opt); err != nil {
			return err
		}
	}
	if col.HasNulls() {
		for i, pos := range idx {
			if col.nulls[rowAt(rows, pos)] {
				words[i] = 0
			}
		}
	}
	return nil
}

// stringRun is a run ord[lo:hi] of the rank sort whose strings tie on every
// byte before off; off < 0 marks a run whose strings all end inside their
// last word and sort by length.
type stringRun struct{ lo, hi, off int }

// stringRanks fills words[i] with the dense rank of the string at position
// idx[i] among all positions, xor flip: one exact word per position, so a
// STRING column sorts like any other. The rank sort orders the positions,
// starting from table order so that the first pass reads the strings in
// memory order; it keys its pairs in words and sorts them through the
// caller's scratch:
//   - every position is radix-sorted by its string's first 8 bytes, a
//     big-endian word zero-padded on the right (stringWord);
//   - a run that ties on its word and holds a string with bytes past it is
//     re-sorted by the next 8 bytes, until no such run is left;
//   - a tied run whose strings all end inside the word differs only in
//     trailing zero bytes ("ab" < "ab\x00"), so comparing its strings is
//     comparing their lengths: it is sorted by length;
//   - the final order is numbered by string equality. Equal strings always
//     end in one run with one word, so where the word changes the strings
//     differ without being read.
//
// Runs are sorted one after another on the calling goroutine, the context
// polled before each; a large run's sort runs on the context's workers.
func stringRanks(words []uint64, idx, rows []int32, strs []string, flip uint64, scratch *sortutil.Scratch, opt Options) error {
	at := func(pos int32) string { return strs[rowAt(rows, pos)] }
	ord, rank := arena.Int32s.Get(len(idx)), arena.Int32s.Get(len(idx))
	defer arena.Int32s.Put(ord)
	defer arena.Int32s.Put(rank)
	for pos := range ord {
		ord[pos] = i32(pos)
	}
	for runs := []stringRun{{0, len(ord), 0}}; len(runs) > 0; {
		r := runs[len(runs)-1]
		runs = runs[:len(runs)-1]
		if err := opt.ctxErr(); err != nil {
			return err
		}
		keys, pos := words[r.lo:r.hi], ord[r.lo:r.hi]
		for j, p := range pos {
			if r.off < 0 {
				keys[j] = uint64(len(at(p)))
			} else {
				keys[j] = stringWord(at(p), r.off)
			}
		}
		if err := scratch.SortPairs(opt.Context, keys, pos); err != nil {
			return err
		}
		if r.off < 0 {
			continue // sorted by length: the run is final
		}
		for lo := r.lo; lo < r.hi; {
			hi := lo + 1
			for hi < r.hi && words[hi] == words[lo] {
				hi++
			}
			if hi-lo > 1 {
				shortest, longest := len(at(ord[lo])), 0
				for _, p := range ord[lo:hi] {
					shortest, longest = min(shortest, len(at(p))), max(longest, len(at(p)))
				}
				switch {
				case longest > r.off+8:
					runs = append(runs, stringRun{lo, hi, r.off + 8})
				case shortest < longest:
					runs = append(runs, stringRun{lo, hi, -1})
				}
			}
			lo = hi
		}
	}
	next := int32(0)
	for j, p := range ord {
		if j > 0 && (words[j] != words[j-1] || at(p) != at(ord[j-1])) {
			next++
		}
		rank[p] = next
	}
	for i, pos := range idx {
		words[i] = uint64(rank[pos]) ^ flip
	}
	return nil
}

// stringWord is the big-endian word of s's bytes off..off+7, zero-padded on
// the right: unsigned word order is byte order, and a string that ends
// inside the word ties with its extensions by zero bytes.
func stringWord(s string, off int) uint64 {
	if off+8 <= len(s) {
		s = s[off : off+8]
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var w uint64
	for k := off; k < off+8; k++ {
		w <<= 8
		if k < len(s) {
			w |= uint64(s[k])
		}
	}
	return w
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
