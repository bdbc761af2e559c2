package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"holistic/internal/core"
	"holistic/internal/csvio"
)

// testFile builds a deterministic random table exercising every encoding:
// int64, date, float64 and strings, each with NULLs, plus a never-null
// column to pin the mask-free path.
func testFile(seed int64, n int) *csvio.File {
	rng := rand.New(rand.NewSource(seed))
	g := make([]int64, n)
	d := make([]int64, n)
	v := make([]int64, n)
	f := make([]float64, n)
	s := make([]string, n)
	late := make([]float64, n)
	vNull := make([]bool, n)
	sNull := make([]bool, n)
	lateNull := make([]bool, n)
	words := []string{"ash", "beech", "cedar", "fir", "oak"}
	for i := range g {
		g[i] = int64(rng.Intn(4))
		d[i] = int64(rng.Intn(60)) // days since epoch; duplicates on purpose
		v[i] = int64(rng.Intn(1000) - 500)
		f[i] = float64(rng.Intn(100)) / 4
		s[i] = words[rng.Intn(len(words))]
		vNull[i] = rng.Intn(10) == 0
		sNull[i] = rng.Intn(12) == 0
		late[i] = float64(i%13) / 2
		// NULLs only from row 97 on: split at 97, the parts before it
		// carry no mask and the one after it does.
		lateNull[i] = i >= 97 && i%3 == 0
	}
	table := core.MustNewTable(
		core.NewInt64Column("g", g, nil),
		core.NewInt64Column("d", d, nil),
		core.NewInt64Column("v", v, vNull),
		core.NewFloat64Column("f", f, nil),
		core.NewStringColumn("s", s, sNull),
		core.NewFloat64Column("late", late, lateNull),
	)
	return &csvio.File{Table: table, DateColumns: map[string]bool{"d": true}}
}

// sliceFile extracts rows [lo, hi) into a fresh file.
func sliceFile(f *csvio.File, lo, hi int) *csvio.File {
	cols := make([]*core.Column, 0, len(f.Table.Columns()))
	for _, c := range f.Table.Columns() {
		cols = append(cols, core.ConcatSpans([]*core.Column{c}, []core.RowSpan{{Lo: lo, Hi: hi}}))
	}
	return &csvio.File{Table: core.MustNewTable(cols...), DateColumns: f.DateColumns}
}

// writeSegments splits f into parts at the given row boundaries and writes
// one segment per part into dir, returning the segment IDs.
func writeSegments(t testing.TB, dir string, f *csvio.File, bounds []int, blockRows int) []string {
	t.Helper()
	var ids []string
	lo := 0
	for i, hi := range append(bounds, f.Table.Rows()) {
		if hi == lo {
			continue
		}
		w, err := NewWriter(filepath.Join(dir, fmt.Sprintf("part-%03d%s", i, FileSuffix)), blockRows)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTable(sliceFile(f, lo, hi), int64(lo)); err != nil {
			t.Fatal(err)
		}
		id, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		lo = hi
	}
	return ids
}

// renderCSV renders a file for byte-identity comparison.
func renderCSV(t testing.TB, f *csvio.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := csvio.Write(&buf, f.Table, f.DateColumns); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := testFile(1, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "one"+FileSuffix)
	w, err := NewWriter(path, 7) // deliberately tiny blocks: 15 per column
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTable(f, 0); err != nil {
		t.Fatal(err)
	}
	id, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ID() != id {
		t.Fatalf("reader ID %s != writer ID %s", r.ID(), id)
	}
	if r.Rows() != 100 || r.StartRow() != 0 {
		t.Fatalf("rows=%d start=%d", r.Rows(), r.StartRow())
	}
	if got := len(r.Manifest().Columns[0].Blocks); got != 15 {
		t.Fatalf("block count %d, want 15", got)
	}
	cols := make([]*core.Column, 0)
	for _, meta := range r.Manifest().Columns {
		c, err := r.Column(meta.Name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	back := &csvio.File{Table: core.MustNewTable(cols...), DateColumns: f.DateColumns}
	if !bytes.Equal(renderCSV(t, back), renderCSV(t, f)) {
		t.Fatal("segment round trip is not byte-identical")
	}
}

// TestCorruptAnyByteFails flips every single byte of a segment file in
// turn; each flip must be caught by Open or by a column load — the format
// leaves no unchecked byte.
func TestCorruptAnyByteFails(t *testing.T) {
	f := testFile(2, 30)
	dir := t.TempDir()
	path := filepath.Join(dir, "c"+FileSuffix)
	w, err := NewWriter(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTable(f, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range orig {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xff
		bad := filepath.Join(dir, "bad"+FileSuffix)
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(bad)
		if err != nil {
			continue // framing check caught it
		}
		caught := false
		for _, meta := range r.Manifest().Columns {
			if _, err := r.Column(meta.Name); err != nil {
				caught = true
				break
			}
		}
		r.Close()
		if !caught {
			t.Fatalf("flipping byte %d of %d went undetected", pos, len(orig))
		}
	}
}

func TestTruncationFailsCleanly(t *testing.T) {
	f := testFile(3, 40)
	dir := t.TempDir()
	path := filepath.Join(dir, "t"+FileSuffix)
	w, err := NewWriter(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTable(f, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(headerMagic), len(orig) / 2, len(orig) - footerLen, len(orig) - 1} {
		bad := filepath.Join(dir, "short"+FileSuffix)
		if err := os.WriteFile(bad, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(bad); err == nil {
			r.Close()
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(orig))
		}
	}
}

func TestOpenDir(t *testing.T) {
	f := testFile(4, 120)
	dir := t.TempDir()
	ids := writeSegments(t, dir, f, []int{31, 64, 97}, 16)
	if len(ids) != 4 {
		t.Fatalf("wrote %d segments, want 4", len(ids))
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Rows() != 120 || len(d.Segments()) != 4 {
		t.Fatalf("rows=%d segments=%d", d.Rows(), len(d.Segments()))
	}
	for i, s := range d.Segments() {
		c, err := s.Column("late")
		if err != nil {
			t.Fatal(err)
		}
		if c.HasNulls() != (i == 3) {
			t.Fatalf("segment %d: late has a mask: %v, want only the last segment's", i, c.HasNulls())
		}
	}
	got, err := d.File(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderCSV(t, got), renderCSV(t, f)) {
		t.Fatal("multi-segment materialization differs from the source table")
	}
	if v := d.Version(); len(v) != 8 {
		t.Fatalf("version %q", v)
	}
}

func TestOpenDirRejectsGapsAndSchemaDrift(t *testing.T) {
	f := testFile(5, 60)
	// A missing middle segment leaves a row gap.
	gapDir := t.TempDir()
	writeSegments(t, gapDir, f, []int{20, 40}, 16)
	if err := os.Remove(filepath.Join(gapDir, "part-001"+FileSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(gapDir); err == nil {
		t.Fatal("row gap went undetected")
	}
	// A segment with different columns is schema drift.
	driftDir := t.TempDir()
	writeSegments(t, driftDir, f, nil, 16)
	other := &csvio.File{Table: core.MustNewTable(core.NewInt64Column("x", []int64{1}, nil))}
	w, err := NewWriter(filepath.Join(driftDir, "zz"+FileSuffix), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTable(other, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(driftDir); err == nil {
		t.Fatal("schema drift went undetected")
	}
	// An empty directory is not a dataset.
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}
