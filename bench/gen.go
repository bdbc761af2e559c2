package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/segment"
)

// colKind is how a column's values are drawn.
type colKind int

const (
	kindSeq     colKind = iota // 0, 1, 2, …: the unique key
	kindUniform                // INT64 uniform in [Lo, Lo+Card)
	kindZipf                   // INT64 Zipf-distributed in [0, Card), exponent Skew
	kindCents                  // FLOAT64 with two decimals, uniform in [Lo, Lo+Card) cents
	kindDate                   // DATE, uniform day number in [Lo, Lo+Card)
)

// colSpec declares one column: type, cardinality, skew and NULL ratio.
type colSpec struct {
	Name      string
	Kind      colKind
	Lo, Card  int64
	Skew      float64
	NullRatio float64
}

// eventsSchema is the one table every workload draws its columns from.
func eventsSchema() []colSpec {
	s := []colSpec{
		{Name: "id", Kind: kindSeq},
		{Name: "grp", Kind: kindZipf, Card: 2000, Skew: 1.1},
		{Name: "grp100", Kind: kindUniform, Card: 100},
		{Name: "ts", Kind: kindUniform, Card: 1 << 62},
	}
	for i := 0; i < 26; i++ {
		s = append(s, colSpec{Name: fmt.Sprintf("ts%02d", i), Kind: kindUniform, Card: 1 << 62})
	}
	return append(s,
		colSpec{Name: "cat", Kind: kindZipf, Card: 50000, Skew: 1.1},
		colSpec{Name: "qty", Kind: kindUniform, Lo: 1, Card: 50},
		colSpec{Name: "price", Kind: kindCents, Lo: 100, Card: 100000, NullRatio: 0.01},
		colSpec{Name: "day", Kind: kindDate, Lo: 18262, Card: 3650}, // 2020-01-01 + 10 years
	)
}

// pickCols selects the named columns of a schema, in schema order.
func pickCols(schema []colSpec, names ...string) []colSpec {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []colSpec
	for _, c := range schema {
		if want[c.Name] {
			out = append(out, c)
			delete(want, c.Name)
		}
	}
	if len(want) > 0 {
		panic(fmt.Sprintf("bench: schema lacks columns %v", want))
	}
	return out
}

// colGen draws one column's values. Its stream depends only on (seed, column
// name), so a workload that uses fewer columns sees the same values in them.
type colGen struct {
	spec colSpec
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newColGen(spec colSpec, seed int64, stream string) *colGen {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, stream, spec.Name)
	g := &colGen{spec: spec, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
	if spec.Kind == kindZipf {
		g.zipf = rand.NewZipf(g.rng, spec.Skew, 1, uint64(spec.Card-1))
	}
	return g
}

// next draws the value of row number row (used by kindSeq only).
func (g *colGen) next(row int64) (v int64, null bool) {
	if g.spec.NullRatio > 0 && g.rng.Float64() < g.spec.NullRatio {
		return 0, true
	}
	switch g.spec.Kind {
	case kindSeq:
		return row, false
	case kindZipf:
		return int64(g.zipf.Uint64()), false
	default:
		return g.spec.Lo + g.rng.Int63n(g.spec.Card), false
	}
}

// column is one generated column. Every kind stores int64s (cents for
// kindCents, day numbers for kindDate), which keeps the naive evaluator and
// the mutation model free of per-type code.
type column struct {
	spec  colSpec
	vals  []int64
	nulls []bool // nil when the spec has no NULLs
}

// render is the cell text windowd reads from CSV and writes in responses.
func (c *column) render(i int) string {
	if c.nulls != nil && c.nulls[i] {
		return ""
	}
	return renderValue(c.spec.Kind, c.vals[i])
}

func renderValue(kind colKind, v int64) string {
	switch kind {
	case kindCents:
		return strconv.FormatFloat(float64(v)/100, 'g', -1, 64)
	case kindDate:
		return csvio.DayToDate(v)
	}
	return strconv.FormatInt(v, 10)
}

// data is a generated table plus the client-side model of its mutations:
// dead marks deleted rows, appends grow the columns.
type data struct {
	cols   []*column
	byName map[string]*column
	dead   []bool
	live   int
}

func (d *data) rows() int { return len(d.dead) }

// generate draws rows rows of the given columns from seed.
func generate(specs []colSpec, rows int, seed int64) *data {
	d := &data{byName: make(map[string]*column, len(specs)), dead: make([]bool, rows), live: rows}
	for _, spec := range specs {
		g := newColGen(spec, seed, "base")
		c := &column{spec: spec, vals: make([]int64, rows)}
		if spec.NullRatio > 0 {
			c.nulls = make([]bool, rows)
		}
		for i := range c.vals {
			v, null := g.next(int64(i))
			c.vals[i] = v
			if null {
				c.nulls[i] = true
			}
		}
		d.cols = append(d.cols, c)
		d.byName[spec.Name] = c
	}
	return d
}

// file converts rows [lo, hi) to the table form the program's layers take.
func (d *data) file(lo, hi int) *csvio.File {
	f := &csvio.File{DateColumns: map[string]bool{}}
	cols := make([]*core.Column, len(d.cols))
	for i, c := range d.cols {
		var nulls []bool
		if c.nulls != nil {
			nulls = c.nulls[lo:hi]
		}
		if c.spec.Kind == kindCents {
			fl := make([]float64, hi-lo)
			for j := range fl {
				fl[j] = float64(c.vals[lo+j]) / 100
			}
			cols[i] = core.NewFloat64Column(c.spec.Name, fl, nulls)
			continue
		}
		cols[i] = core.NewInt64Column(c.spec.Name, c.vals[lo:hi], nulls)
		if c.spec.Kind == kindDate {
			f.DateColumns[c.spec.Name] = true
		}
	}
	f.Table = core.MustNewTable(cols...)
	return f
}

// csvBytes renders the table as the CSV windowd loads.
func (d *data) csvBytes() ([]byte, error) {
	f := d.file(0, d.rows())
	var buf bytes.Buffer
	if err := csvio.Write(&buf, f.Table, f.DateColumns); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// segmentRows is the rows per segment file, the ingest layer's default.
const segmentRows = 100_000

// writeSegments writes the table as a segment dataset directory.
func (d *data) writeSegments(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, lo := 0, 0; lo < d.rows(); i, lo = i+1, lo+segmentRows {
		hi := min(lo+segmentRows, d.rows())
		w, err := segment.NewWriter(filepath.Join(dir, fmt.Sprintf("part-%06d%s", i, segment.FileSuffix)), 0)
		if err != nil {
			return err
		}
		if err := w.WriteTable(d.file(lo, hi), int64(lo)); err != nil {
			w.Abort()
			return err
		}
		if _, err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// inputKey identifies generated input files: schema, row count and seed.
func inputKey(specs []colSpec, rows int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%+v", rows, seed, specs)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// inputFiles are the on-disk forms of a generated table.
type inputFiles struct {
	CSV    string // CSV file
	SegDir string // segment dataset directory
}

// materialize writes the forms of d the workload registers from under
// work/data, or reuses them when a run with the same (schema, rows, seed)
// left them there. One entry is kept per workload name.
func materialize(work, name string, d *data, specs []colSpec, seed int64, wantCSV, wantSeg bool) (inputFiles, error) {
	root := filepath.Join(work, "data")
	dir := filepath.Join(root, name+"-"+inputKey(specs, d.rows(), seed))
	files := inputFiles{CSV: filepath.Join(dir, "events.csv"), SegDir: filepath.Join(dir, "segments")}
	marker := filepath.Join(dir, "complete")
	if _, err := os.Stat(marker); err == nil {
		return files, nil
	}
	if entries, err := os.ReadDir(root); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), name+"-") {
				if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
					return files, err
				}
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return files, err
	}
	if wantCSV {
		b, err := d.csvBytes()
		if err != nil {
			return files, err
		}
		if err := os.WriteFile(files.CSV, b, 0o644); err != nil {
			return files, err
		}
	}
	if wantSeg {
		if err := d.writeSegments(files.SegDir); err != nil {
			return files, err
		}
	}
	// Flush what was written before anything is timed: left to the kernel,
	// write-back of a 1M-row table runs some 30 s later, beside the next
	// timed phase.
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
	if err != nil {
		return files, err
	}
	return files, os.WriteFile(marker, nil, 0o644)
}
