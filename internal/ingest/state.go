// Package ingest turns a CSV source into a multi-segment dataset
// directory with a parallel, resumable, two-phase pipeline:
//
//  1. Plan (sequential): one streaming pass over the source splits it into
//     half-open row intervals of RowsPerSegment rows, recording each
//     interval's byte offset and source line, and folds every cell into
//     whole-file type-inference flags (csvio.ColFlags). Planning from the
//     whole file guarantees every worker agrees on the schema — a worker
//     that only saw integers must still build a float column if a later
//     interval holds one.
//  2. Ingest (parallel): a worker pool parses the intervals independently
//     — each seeks straight to its byte offset — and writes one segment
//     file per interval. Parse errors surface csvio's
//     `line N, column "x"` context verbatim, with line numbers global to
//     the source file.
//
// The plan and per-interval completions persist to a JSON state file in
// the destination directory after every step, so a killed ingest resumes
// where it stopped: planning is not repeated, completed intervals are
// skipped (their segments are already durable — segment.Writer renames
// atomically), and only unfinished intervals run. A source fingerprint
// guards resumption against the file changing underneath the state.
//
// Runs, rows, segments and resumed intervals are counted process-wide in
// obs.Default (the windowd_ingest_* families); a running ingest's own
// position is its Progress.
package ingest

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"holistic/internal/csvio"
)

// stateVersion is the state file format; mismatches discard the state and
// restart the ingest from planning.
const stateVersion = 1

// StateFile is the name of the progress state inside the destination
// directory.
const StateFile = "ingest.state.json"

// Fingerprint identifies a source file's content cheaply: size, mtime and
// a checksum of the leading bytes. A resumed ingest refuses to continue
// over a source whose fingerprint changed.
type Fingerprint struct {
	Size    int64  `json:"size"`
	ModTime int64  `json:"mod_time_ns"`
	HeadCRC uint32 `json:"head_crc"`
}

// fingerprint computes the source fingerprint.
func fingerprint(path string) (Fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return Fingerprint{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Fingerprint{}, err
	}
	h := crc32.New(castagnoli())
	if _, err := io.Copy(h, io.LimitReader(f, 1<<16)); err != nil {
		return Fingerprint{}, err
	}
	return Fingerprint{Size: st.Size(), ModTime: st.ModTime().UnixNano(), HeadCRC: h.Sum32()}, nil
}

// castagnoli returns the CRC table (kept behind a function to avoid an
// init-order dependency; crc32.MakeTable memoizes internally).
func castagnoli() *crc32.Table {
	return crc32.MakeTable(crc32.Castagnoli)
}

// Interval is one planned half-open row range [StartRow, StartRow+Rows) of
// the source, locatable without re-scanning what precedes it.
type Interval struct {
	Index int `json:"index"`
	// StartRow is the global 0-based data-row position (header excluded).
	StartRow int64 `json:"start_row"`
	// Rows is the interval's row count.
	Rows int `json:"rows"`
	// ByteOff and ByteLen delimit the interval's raw bytes in the source.
	ByteOff int64 `json:"byte_off"`
	ByteLen int64 `json:"byte_len"`
	// StartLine is the 1-based source line of the interval's first record,
	// for error messages with file-global line numbers.
	StartLine int `json:"start_line"`
}

// Completed records one finished interval.
type Completed struct {
	SegmentID string `json:"segment_id"`
	Rows      int    `json:"rows"`
}

// State is the resumable progress of one ingest, persisted as JSON after
// planning and after every interval completion.
type State struct {
	Version        int                `json:"version"`
	Source         string             `json:"source"`
	Fingerprint    Fingerprint        `json:"fingerprint"`
	RowsPerSegment int                `json:"rows_per_segment"`
	Header         []string           `json:"header"`
	Flags          []csvio.ColFlags   `json:"flags"`
	Intervals      []Interval         `json:"intervals"`
	Completed      map[int]*Completed `json:"completed"`
}

// statePath returns the state file location for a destination directory.
func statePath(dest string) string { return filepath.Join(dest, StateFile) }

// loadState reads a state file; a missing file returns (nil, nil).
func loadState(dest string) (*State, error) {
	b, err := os.ReadFile(statePath(dest))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s State
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("ingest: corrupt state file %s: %w", statePath(dest), err)
	}
	return &s, nil
}

// save atomically persists the state (write temp, fsync, rename) so a
// crash never leaves a torn state file behind.
func (s *State) save(dest string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dest, ".state-tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, statePath(dest))
}

// segmentName is the file name of interval i's segment.
func segmentName(i int) string { return fmt.Sprintf("part-%06d.seg", i) }

// usable reports whether a loaded state can resume an ingest of src with
// the given fingerprint and segment size.
func (s *State) usable(src string, fp Fingerprint, rowsPerSegment int) bool {
	return s != nil &&
		s.Version == stateVersion &&
		s.Source == src &&
		s.Fingerprint == fp &&
		s.RowsPerSegment == rowsPerSegment
}
