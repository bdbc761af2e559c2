// Package csvio reads and writes core tables as CSV with type inference,
// shared by the command-line tools and the chunked ingester. Column types
// are inferred from the data: INT64, then ISO dates (stored as days since
// the Unix epoch), then FLOAT64, then STRING; empty cells become SQL NULLs.
//
// The inference state (ColFlags) and the strict row-to-column conversion
// (BuildColumns) are exported so internal/ingest can split the two phases:
// a sequential planning pass infers whole-file flags, then parallel workers
// parse disjoint row ranges under those fixed flags — guaranteeing every
// worker agrees on the schema regardless of which rows it saw.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"holistic/internal/core"
)

// dateFormat is the accepted date layout.
const dateFormat = "2006-01-02"

var epoch = time.Unix(0, 0).UTC()

// DayToDate renders a days-since-epoch value as an ISO date.
func DayToDate(day int64) string {
	var buf [16]byte
	return string(AppendDate(buf[:0], day))
}

// AppendDate appends the ISO date of a days-since-epoch value to dst.
func AppendDate(dst []byte, day int64) []byte {
	return epoch.AddDate(0, 0, int(day)).AppendFormat(dst, dateFormat)
}

// DateToDay parses an ISO date into days since the epoch.
func DateToDay(s string) (int64, error) {
	d, err := time.Parse(dateFormat, s)
	if err != nil {
		return 0, err
	}
	return int64(d.Sub(epoch).Hours() / 24), nil
}

// File couples a loaded table with its rendering layout: which columns were
// parsed from ISO dates (and are stored as day numbers), so writing renders
// them back as dates.
type File struct {
	Table *core.Table
	// DateColumns marks columns parsed from ISO dates.
	DateColumns map[string]bool
}

// ColFlags is the streaming type-inference state for one column. Observe
// every non-empty cell, then the narrowest surviving flag (int, then date,
// then float) decides the column type; a column with no surviving flag — or
// no values at all — is a string column. Flags from disjoint row ranges
// combine with Merge, so inference distributes over chunks.
type ColFlags struct {
	IsInt, IsFloat, IsDate bool
	// SawValue records whether any non-empty cell was observed; an all-NULL
	// column types as STRING.
	SawValue bool
}

// NewColFlags returns the initial state: every type still possible.
func NewColFlags() ColFlags {
	return ColFlags{IsInt: true, IsFloat: true, IsDate: true}
}

// Observe folds one cell into the inference state. Empty cells are NULLs
// and carry no type evidence.
func (f *ColFlags) Observe(v string) {
	if v == "" {
		return
	}
	f.SawValue = true
	if f.IsInt {
		if _, e := strconv.ParseInt(v, 10, 64); e != nil {
			f.IsInt = false
		}
	}
	if f.IsFloat {
		if _, e := strconv.ParseFloat(v, 64); e != nil {
			f.IsFloat = false
		}
	}
	if f.IsDate {
		if _, e := time.Parse(dateFormat, v); e != nil {
			f.IsDate = false
		}
	}
}

// Merge combines inference states from disjoint row ranges: a type survives
// only if it survived in both, and a value was seen if either saw one.
func (f *ColFlags) Merge(g ColFlags) {
	f.IsInt = f.IsInt && g.IsInt
	f.IsFloat = f.IsFloat && g.IsFloat
	f.IsDate = f.IsDate && g.IsDate
	f.SawValue = f.SawValue || g.SawValue
}

// cellError wraps a parse failure with its source location, naming the line
// and the column so a failure deep inside a multi-gigabyte ingest pinpoints
// the offending cell.
func cellError(line int, column string, err error) error {
	return fmt.Errorf("csvio: line %d, column %q: %w", line, column, err)
}

// BuildColumns converts parsed CSV rows into typed columns under the given
// per-column flags. The flags normally come from inference over a superset
// of rows (the whole file), so parsing is strict: a cell that contradicts
// its column's inferred type is an error, reported with the cell's source
// line and column name. lines[i] is the 1-based source line of row i; a nil
// lines slice numbers rows from 2 (row 0 follows a header on line 1).
//
// The second result marks date columns, matching File.DateColumns.
func BuildColumns(header []string, rows [][]string, flags []ColFlags, lines []int) ([]*core.Column, map[string]bool, error) {
	if len(flags) != len(header) {
		return nil, nil, fmt.Errorf("csvio: %d columns but %d flag entries", len(header), len(flags))
	}
	lineOf := func(i int) int {
		if lines != nil {
			return lines[i]
		}
		return i + 2
	}
	n := len(rows)
	dateCols := map[string]bool{}
	cols := make([]*core.Column, len(header))
	for c, name := range header {
		f := flags[c]
		nulls := make([]bool, n)
		hasNull := false
		for i, row := range rows {
			if row[c] == "" {
				nulls[i] = true
				hasNull = true
			}
		}
		if !hasNull {
			nulls = nil
		}
		switch {
		case f.IsInt && f.SawValue:
			vals := make([]int64, n)
			for i, row := range rows {
				if row[c] == "" {
					continue
				}
				v, err := strconv.ParseInt(row[c], 10, 64)
				if err != nil {
					return nil, nil, cellError(lineOf(i), name, err)
				}
				vals[i] = v
			}
			cols[c] = core.NewInt64Column(name, vals, nulls)
		case f.IsDate && f.SawValue:
			vals := make([]int64, n)
			for i, row := range rows {
				if row[c] == "" {
					continue
				}
				v, err := DateToDay(row[c])
				if err != nil {
					return nil, nil, cellError(lineOf(i), name, err)
				}
				vals[i] = v
			}
			cols[c] = core.NewInt64Column(name, vals, nulls)
			dateCols[name] = true
		case f.IsFloat && f.SawValue:
			vals := make([]float64, n)
			for i, row := range rows {
				if row[c] == "" {
					continue
				}
				v, err := strconv.ParseFloat(row[c], 64)
				if err != nil {
					return nil, nil, cellError(lineOf(i), name, err)
				}
				vals[i] = v
			}
			cols[c] = core.NewFloat64Column(name, vals, nulls)
		default:
			// CSV cannot distinguish the empty string from NULL; empty
			// cells are treated as NULL for every type, strings included.
			vals := make([]string, n)
			for i, row := range rows {
				vals[i] = row[c]
			}
			cols[c] = core.NewStringColumn(name, vals, nulls)
		}
	}
	return cols, dateCols, nil
}

// Read loads a CSV (header row required) into a table, inferring column
// types.
func Read(r io.Reader) (*File, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("csvio: empty input (missing header row)")
	}
	if err != nil {
		return nil, err
	}
	var rows [][]string
	var lines []int
	flags := make([]ColFlags, len(header))
	for c := range flags {
		flags[c] = NewColFlags()
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line, _ := cr.FieldPos(0)
		lines = append(lines, line)
		for c, v := range row {
			flags[c].Observe(v)
		}
		rows = append(rows, row)
	}
	cols, dateCols, err := BuildColumns(header, rows, flags, lines)
	if err != nil {
		return nil, err
	}
	table, err := core.NewTable(cols...)
	if err != nil {
		return nil, err
	}
	return &File{Table: table, DateColumns: dateCols}, nil
}

// Write renders a table as CSV with a header row. NULLs become empty cells.
// dateColumns (may be nil) marks INT64 columns rendered as ISO dates.
func Write(w io.Writer, t *core.Table, dateColumns map[string]bool) error {
	cw := csv.NewWriter(w)
	cols := t.Columns()
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	dates := make([]bool, len(cols))
	for c, col := range cols {
		dates[c] = dateColumns[col.Name()]
	}
	row := make([]string, len(cols))
	for i := 0; i < t.Rows(); i++ {
		for c, col := range cols {
			row[c] = formatCell(col, i, dates[c])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatCell is AppendCell as a string. String cells are returned as they
// are stored, not copied.
func formatCell(col *core.Column, i int, date bool) string {
	if col.Kind() == core.String {
		if col.IsNull(i) {
			return ""
		}
		return col.StringAt(i)
	}
	var buf [32]byte
	return string(AppendCell(buf[:0], col, i, date))
}

// AppendCell appends the text of row i of col to dst: nothing for NULL, an
// ISO date for an INT64 column when date is set, and otherwise the shortest
// decimal text that parses back to the value. It is the one definition of
// cell text that CSV output and windowd's query responses share.
func AppendCell(dst []byte, col *core.Column, i int, date bool) []byte {
	if col.IsNull(i) {
		return dst
	}
	switch col.Kind() {
	case core.Int64:
		if date {
			return AppendDate(dst, col.Int64(i))
		}
		return strconv.AppendInt(dst, col.Int64(i), 10)
	case core.Float64:
		return strconv.AppendFloat(dst, col.Float64(i), 'g', -1, 64)
	case core.String:
		return append(dst, col.StringAt(i)...)
	default:
		return strconv.AppendBool(dst, col.Bool(i))
	}
}
