// Package segment implements the on-disk columnar segment format behind
// out-of-core datasets: a dataset directory holds one immutable segment
// file per ingested row range, and Dir.File decodes every segment's blocks
// straight into one in-memory table, the dataset's only copy.
//
// §5.1 of the paper observes that a built merge sort tree "could also be
// spooled to disk" because it is nothing but flat integer arrays; segments
// extend the same philosophy to the base columns. A segment file is
//
//	magic "SEG1" (4 bytes)
//	column blocks, contiguous, in manifest order
//	manifest (JSON, schema + per-column block index)
//	footer (24 bytes): manifestOff u64 | manifestLen u64 |
//	                   manifestCRC u32 | footer magic u32
//
// Each block covers a fixed number of rows of one column (the last block
// of a column may be short) and carries its own CRC-32C in the manifest,
// so a reader verifies exactly the bytes it loads. Every byte of the
// file is covered by a check: the two magics and the footer's structural
// equation manifestOff+manifestLen == fileSize-24 pin the framing, the
// manifest CRC covers the block index, and the block CRCs cover the data —
// any single corrupted byte is detected by Open or by the first load that
// touches it.
//
// Segment identity is content-derived: the ID is the manifest CRC rendered
// in hex. The manifest embeds every block's offset, length and CRC plus the
// row range, so two segments share an ID exactly when their bytes are
// interchangeable, and Dir.Version, a hash of the IDs, changes whenever any
// segment does.
package segment

import (
	"fmt"
	"hash/crc32"
)

// FormatVersion is the manifest format written by this package. Readers
// reject other versions.
const FormatVersion = 1

const (
	headerMagic = "SEG1"
	footerMagic = uint32(0x31474553) // "SEG1" little-endian
	footerLen   = 24
)

// FileSuffix is the file-name suffix of segment files in a dataset
// directory.
const FileSuffix = ".seg"

// DefaultBlockRows is the block granularity used when a Writer is not
// given an explicit one.
const DefaultBlockRows = 4096

// Column encodings. The encoding decides both the block payload layout and
// the core column kind a read produces.
const (
	// EncInt64 stores 8-byte little-endian integers (also used for date
	// columns, which store days since the Unix epoch; Date marks them).
	EncInt64 = "int64"
	// EncFloat64 stores IEEE-754 bits, 8-byte little-endian.
	EncFloat64 = "float64"
	// EncStrDict stores a per-block dictionary of distinct strings plus a
	// u32 code per row.
	EncStrDict = "strdict"
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manifest describes one segment file: its schema and the block index.
// It is stored as JSON between the data blocks and the footer.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// Rows is the segment's row count.
	Rows int `json:"rows"`
	// StartRow is the global position of the segment's first row within
	// its dataset; OpenDir validates that segments tile [0, totalRows).
	StartRow int64 `json:"start_row"`
	// BlockRows is the fixed per-block row count (last block short).
	BlockRows int `json:"block_rows"`
	// Columns is the schema plus block index, in file order.
	Columns []ColumnMeta `json:"columns"`
}

// ColumnMeta is the manifest entry for one column.
type ColumnMeta struct {
	Name     string `json:"name"`
	Encoding string `json:"encoding"`
	// Date marks an EncInt64 column that renders as an ISO date.
	Date bool `json:"date,omitempty"`
	// Blocks index the column's data, in row order.
	Blocks []BlockMeta `json:"blocks"`
}

// BlockMeta locates and checks one block.
type BlockMeta struct {
	// Offset is the block's byte offset within the file.
	Offset int64 `json:"offset"`
	// Length is the block's byte length.
	Length int64 `json:"length"`
	// Rows is the number of rows the block covers.
	Rows int `json:"rows"`
	// CRC is the CRC-32C of the block's bytes.
	CRC uint32 `json:"crc"`
}

// schemaSig renders the schema identity of a manifest — column names,
// encodings and date flags in order — used by OpenDir to insist that every
// segment of a dataset agrees.
func (m *Manifest) schemaSig() string {
	sig := ""
	for _, c := range m.Columns {
		d := ""
		if c.Date {
			d = "@date"
		}
		sig += fmt.Sprintf("%q:%s%s;", c.Name, c.Encoding, d)
	}
	return sig
}
