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
	path string
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
	d := &Dir{path: dir}
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

// Path returns the dataset directory.
func (d *Dir) Path() string { return d.path }

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

// loadCached loads one segment's column through the cache (or directly
// when cache is nil). Columns are cached under content-addressed keys
// ("seg:<id>|col:<name>") — no dataset or version prefix — so when a
// dataset is partially re-ingested, entries for untouched segments remain
// valid and only the replaced segments' columns are re-read from disk.
func loadCached(cache core.TreeCache, s *Reader, name string) (*colData, error) {
	if cache == nil {
		return s.load(name)
	}
	got, err := cache.GetOrBuild("seg:"+s.ID()+"|col:"+name, func() (any, int64, error) {
		d, err := s.load(name)
		if err != nil {
			return nil, 0, err
		}
		return d, d.bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	if d, okType := got.(*colData); okType {
		return d, nil
	}
	return s.load(name)
}

// File materializes the dataset into an in-memory table by concatenating
// the per-segment columns, loading each through the cache. The result is
// exactly what csvio.Read of the original source would have produced, so
// the query path above (operator, tree cache, server) is oblivious to
// whether a dataset arrived in one piece or as segments.
func (d *Dir) File(cache core.TreeCache) (*csvio.File, error) {
	first := d.segs[0].man
	cols := make([]*core.Column, len(first.Columns))
	dateCols := map[string]bool{}
	for ci, meta := range first.Columns {
		parts := make([]*colData, len(d.segs))
		anyNull := false
		for si, s := range d.segs {
			p, err := loadCached(cache, s, meta.Name)
			if err != nil {
				return nil, err
			}
			parts[si] = p
			anyNull = anyNull || p.nulls != nil
		}
		whole := &colData{encoding: meta.Encoding, date: meta.Date}
		if anyNull {
			whole.nulls = make([]bool, 0, d.rows)
		}
		for si, p := range parts {
			switch meta.Encoding {
			case EncInt64:
				whole.ints = append(whole.ints, p.ints...)
			case EncFloat64:
				whole.floats = append(whole.floats, p.floats...)
			case EncStrDict:
				whole.strs = append(whole.strs, p.strs...)
			}
			if anyNull {
				if p.nulls != nil {
					whole.nulls = append(whole.nulls, p.nulls...)
				} else {
					whole.nulls = append(whole.nulls, make([]bool, d.segs[si].Rows())...)
				}
			}
		}
		cols[ci] = whole.column(meta.Name)
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
