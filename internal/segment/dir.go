package segment

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"holistic/internal/core"
	"holistic/internal/csvio"
)

// Dir is an opened multi-segment dataset directory: every *.seg file,
// schema-checked and ordered by start row into one logical table.
type Dir struct {
	segs []*Reader
	rows int
}

// OpenDir opens every segment in dir and validates that they form one
// dataset: identical schemas and a gap-free tiling of rows starting at 0.
func OpenDir(dir string) (*Dir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := &Dir{}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != FileSuffix {
			continue
		}
		r, err := Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		d.segs = append(d.segs, r)
	}
	if len(d.segs) == 0 {
		return nil, fmt.Errorf("segment: %s holds no %s files", dir, FileSuffix)
	}
	sort.Slice(d.segs, func(i, j int) bool { return d.segs[i].StartRow() < d.segs[j].StartRow() })
	sig := d.segs[0].man.schemaSig()
	var next int64
	for _, s := range d.segs {
		if got := s.man.schemaSig(); got != sig {
			return nil, fmt.Errorf("segment: %s: schema %s differs from %s's %s", s.path, got, d.segs[0].path, sig)
		}
		if s.StartRow() != next {
			return nil, fmt.Errorf("segment: %s starts at row %d, expected %d (missing or overlapping segment)", s.path, s.StartRow(), next)
		}
		next += int64(s.Rows())
	}
	d.rows = int(next)
	ok = true
	return d, nil
}

// Rows returns the dataset's total row count.
func (d *Dir) Rows() int { return d.rows }

// Segments returns the ordered segment readers (shared, not a copy).
func (d *Dir) Segments() []*Reader { return d.segs }

// Version derives a content version for the whole dataset from its
// segments' IDs and row placement — suitable as a cache scope: any change
// to any segment changes the version.
func (d *Dir) Version() string {
	h := crc32.New(castagnoli)
	for _, s := range d.segs {
		fmt.Fprintf(h, "%s@%d;", s.ID(), s.StartRow())
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// Close closes every segment.
func (d *Dir) Close() error {
	var first error
	for _, s := range d.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// File materializes the dataset into an in-memory table: each column is
// allocated once, Rows() rows long, and every segment's blocks decode
// straight into it at the segment's start row, so no per-segment copy is
// ever held. The result is exactly what csvio.Read of the original source
// would have produced, so the query path above (operator, tree cache,
// server) is oblivious to whether a dataset arrived in one piece or as
// segments.
//
// The cache argument is ignored: the table is the dataset's one copy, and
// the structure cache holds only structures built over it, under the
// dataset's scope.
func (d *Dir) File(_ core.TreeCache) (*csvio.File, error) {
	first := d.segs[0].man
	cols := make([]*core.Column, len(first.Columns))
	dateCols := map[string]bool{}
	for ci, meta := range first.Columns {
		c := newColumn(meta.Encoding, d.rows)
		for _, s := range d.segs {
			// OpenDir checked that every segment lists the same columns in
			// the same order.
			if err := s.decode(&s.man.Columns[ci], c, int(s.StartRow())); err != nil {
				return nil, err
			}
		}
		cols[ci] = c.column(meta.Name)
		if meta.Date {
			dateCols[meta.Name] = true
		}
	}
	table, err := core.NewTable(cols...)
	if err != nil {
		return nil, err
	}
	return &csvio.File{Table: table, DateColumns: dateCols}, nil
}
