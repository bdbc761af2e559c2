package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"holistic/internal/core"
)

// Reader opens one segment file for column access. Open verifies the
// framing (magics, footer structural equation, manifest CRC) eagerly, and
// each column load verifies its blocks' CRCs as it reads them.
//
// A Reader is safe for concurrent column loads: all file access goes
// through ReadAt and the Reader itself is immutable after Open.
type Reader struct {
	f    *os.File
	path string
	man  Manifest
	id   string
}

// Open opens and structurally verifies a segment file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := verify(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	return r, nil
}

// verify runs Open's structural checks; split out so errors can be wrapped
// uniformly with the path.
func verify(f *os.File, path string) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(headerMagic))+footerLen {
		return nil, fmt.Errorf("file of %d bytes is too small to be a segment", size)
	}
	var head [4]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if string(head[:]) != headerMagic {
		return nil, fmt.Errorf("bad header magic %q", head[:])
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(footer[20:]); got != footerMagic {
		return nil, fmt.Errorf("bad footer magic %#x", got)
	}
	manifestOff := binary.LittleEndian.Uint64(footer[0:])
	manifestLen := binary.LittleEndian.Uint64(footer[8:])
	manifestCRC := binary.LittleEndian.Uint32(footer[16:])
	// The structural equation pins the footer fields to the file size: a
	// flipped byte in either field breaks it, so the (un-CRC'd) footer is
	// still fully checked.
	if manifestOff < uint64(len(headerMagic)) || manifestLen == 0 ||
		manifestOff+manifestLen != uint64(size)-footerLen {
		return nil, fmt.Errorf("footer framing inconsistent with file size %d", size)
	}
	mb := make([]byte, manifestLen)
	if _, err := f.ReadAt(mb, int64(manifestOff)); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(mb, castagnoli); got != manifestCRC {
		return nil, fmt.Errorf("manifest checksum mismatch (got %#x, want %#x)", got, manifestCRC)
	}
	var man Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("decoding manifest: %w", err)
	}
	if man.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("unsupported format version %d", man.FormatVersion)
	}
	if man.Rows <= 0 || man.BlockRows <= 0 || man.StartRow < 0 {
		return nil, fmt.Errorf("implausible manifest (rows=%d block_rows=%d start_row=%d)", man.Rows, man.BlockRows, man.StartRow)
	}
	// Block index validation: blocks tile [4, manifestOff) contiguously in
	// manifest order, and each column's blocks tile its rows in
	// BlockRows-sized pieces. With this, every byte of the file is covered
	// by exactly one check.
	off := int64(len(headerMagic))
	for _, c := range man.Columns {
		switch c.Encoding {
		case EncInt64, EncFloat64, EncStrDict:
		default:
			return nil, fmt.Errorf("column %q: unknown encoding %q", c.Name, c.Encoding)
		}
		rows := 0
		for bi, b := range c.Blocks {
			if b.Offset != off || b.Length <= 0 {
				return nil, fmt.Errorf("column %q block %d: offset %d, expected %d", c.Name, bi, b.Offset, off)
			}
			want := min(man.BlockRows, man.Rows-rows)
			if b.Rows != want {
				return nil, fmt.Errorf("column %q block %d: %d rows, expected %d", c.Name, bi, b.Rows, want)
			}
			rows += b.Rows
			off += b.Length
		}
		if rows != man.Rows {
			return nil, fmt.Errorf("column %q blocks cover %d rows, manifest says %d", c.Name, rows, man.Rows)
		}
	}
	if off != int64(manifestOff) {
		return nil, fmt.Errorf("blocks end at %d but manifest starts at %d", off, manifestOff)
	}
	return &Reader{f: f, path: path, man: man, id: segmentID(manifestCRC)}, nil
}

// ID returns the content-derived segment identity.
func (r *Reader) ID() string { return r.id }

// Rows returns the segment's row count.
func (r *Reader) Rows() int { return r.man.Rows }

// StartRow returns the global position of the segment's first row.
func (r *Reader) StartRow() int64 { return r.man.StartRow }

// Manifest returns the segment's manifest (shared, not a copy; callers
// must not mutate it).
func (r *Reader) Manifest() *Manifest { return &r.man }

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// column is a column being decoded: its encoding, its row count, the
// values of the encoding's kind and the NULL mask, made at the first NULL,
// so a column without one has none.
type column struct {
	encoding string
	rows     int
	ints     []int64
	floats   []float64
	strs     []string
	nulls    []bool
}

// newColumn allocates a rows-row column for the encoding.
func newColumn(encoding string, rows int) *column {
	c := &column{encoding: encoding, rows: rows}
	switch encoding {
	case EncInt64:
		c.ints = make([]int64, rows)
	case EncFloat64:
		c.floats = make([]float64, rows)
	default:
		c.strs = make([]string, rows)
	}
	return c
}

// column returns the decoded column under name.
func (c *column) column(name string) *core.Column {
	switch c.encoding {
	case EncInt64:
		return core.NewInt64Column(name, c.ints, c.nulls)
	case EncFloat64:
		return core.NewFloat64Column(name, c.floats, c.nulls)
	}
	return core.NewStringColumn(name, c.strs, c.nulls)
}

// decode reads meta's blocks, verifying each one's CRC, and decodes them
// into c from row base on.
func (r *Reader) decode(meta *ColumnMeta, c *column, base int) error {
	var maxLen int64
	for _, b := range meta.Blocks {
		maxLen = max(maxLen, b.Length)
	}
	raw := make([]byte, maxLen)
	for bi, b := range meta.Blocks {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("segment: %s: column %q block %d: "+format, append([]any{r.path, meta.Name, bi}, args...)...)
		}
		buf := raw[:b.Length]
		if _, err := r.f.ReadAt(buf, b.Offset); err != nil {
			return fail("%w", err)
		}
		if got := crc32.Checksum(buf, castagnoli); got != b.CRC {
			return fail("checksum mismatch (got %#x, want %#x)", got, b.CRC)
		}
		bmLen := (b.Rows + 7) / 8
		if len(buf) < bmLen {
			return fail("block of %d bytes cannot hold a %d-row null bitmap", len(buf), bmLen)
		}
		bm, payload := buf[:bmLen], buf[bmLen:]
		var err error
		switch meta.Encoding {
		case EncInt64:
			err = decodeFixed(payload, c.ints[base:base+b.Rows], func(u uint64) int64 { return int64(u) })
		case EncFloat64:
			err = decodeFixed(payload, c.floats[base:base+b.Rows], math.Float64frombits)
		default:
			err = decodeStrings(payload, bm, c.strs[base:base+b.Rows])
		}
		if err != nil {
			return fail("%w", err)
		}
		for i := range b.Rows {
			if bm[i/8]&(1<<(i%8)) != 0 {
				if c.nulls == nil {
					c.nulls = make([]bool, c.rows)
				}
				c.nulls[base+i] = true
			}
		}
		base += b.Rows
	}
	return nil
}

// decodeFixed decodes one block's 8-byte little-endian payload into dst.
func decodeFixed[T any](payload []byte, dst []T, conv func(uint64) T) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("payload of %d bytes for %d fixed-width rows", len(payload), len(dst))
	}
	for i := range dst {
		dst[i] = conv(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

// decodeStrings decodes one block's dictionary payload into dst. All offsets
// are bounds-checked: a structurally valid but content-corrupt block yields
// an error, never a panic.
func decodeStrings(payload, bm []byte, dst []string) error {
	rows := len(dst)
	if len(payload) < 4 {
		return fmt.Errorf("string block too short for dictionary count")
	}
	dictCount := int(binary.LittleEndian.Uint32(payload))
	if dictCount > rows {
		return fmt.Errorf("dictionary of %d entries for %d rows", dictCount, rows)
	}
	p := 4
	dict := make([]string, dictCount)
	for j := 0; j < dictCount; j++ {
		if p+4 > len(payload) {
			return fmt.Errorf("string block truncated in dictionary entry %d", j)
		}
		sl := int(binary.LittleEndian.Uint32(payload[p:]))
		p += 4
		if sl < 0 || p+sl > len(payload) {
			return fmt.Errorf("dictionary entry %d of %d bytes overruns block", j, sl)
		}
		dict[j] = string(payload[p : p+sl])
		p += sl
	}
	if len(payload)-p != 4*rows {
		return fmt.Errorf("code array of %d bytes for %d rows", len(payload)-p, rows)
	}
	for i := 0; i < rows; i++ {
		code := int(binary.LittleEndian.Uint32(payload[p+4*i:]))
		if bm[i/8]&(1<<(i%8)) != 0 {
			continue // NULL rows carry code 0 by convention
		}
		if code >= dictCount {
			return fmt.Errorf("row %d references dictionary code %d of %d", i, code, dictCount)
		}
		dst[i] = dict[code]
	}
	return nil
}
