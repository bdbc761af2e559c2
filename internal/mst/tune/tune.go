// Package tune derives merge-sort-tree construction parameters from
// measured build+probe costs, replacing the paper's fixed f = k = 32 (§5.2
// fixes both constants once for all inputs) with a per-input-size choice.
//
// The tuner is a versioned lookup table: each row covers partition sizes up
// to its MaxN and names the fanout f and the cascading sample distance k.
// Tables come from two places:
//
//   - Default() — a static, documented table checked in for
//     reproducibility: every run with the default table builds identical
//     trees on every machine;
//   - Calibrate() — an on-machine measurement pass that builds trees and
//     replays sliding-window probe workloads across a size ladder, and
//     picks the (f, k) with the best build+probe total per size.
//
// A Table implements mst.Tuner. Determinism contract: Choose is a pure
// function of (table, n), and Sig() identifies the table's exact contents,
// so structure caches can fold it into their keys (two different tables
// never alias a cache entry). Tables serialize to versioned JSON
// (Encode/Decode, Save/Load) so a calibrated table can be shipped next to
// a deployment and reloaded at start-up.
package tune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"

	"holistic/internal/mst"
)

// TableVersion is the current serialization format version.
const TableVersion = 1

// Row is one size band of a tuning table: it applies to partition sizes
// n <= MaxN that no earlier row covers. The last row additionally covers
// every larger size (a catch-all), so a table always answers.
type Row struct {
	MaxN        int `json:"max_n"`
	Fanout      int `json:"fanout"`
	SampleEvery int `json:"sample_every"`
}

// Table is a versioned tuning table; it implements mst.Tuner. Rows must be
// sorted by ascending MaxN (NewTable and Decode enforce this).
type Table struct {
	Version int   `json:"version"`
	Rows    []Row `json:"rows"`
	sig     string
}

// NewTable builds a table from rows, sorting them by MaxN and precomputing
// the signature. At least one row is required.
func NewTable(rows []Row) (*Table, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("tune: table needs at least one row")
	}
	sorted := make([]Row, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].MaxN < sorted[j].MaxN })
	for _, r := range sorted {
		if r.Fanout != 0 && (r.Fanout < 2 || r.Fanout > mst.MaxFanout) {
			return nil, fmt.Errorf("tune: row max_n=%d: %w", r.MaxN, &mst.FanoutError{Fanout: r.Fanout})
		}
		if r.SampleEvery < 0 {
			return nil, fmt.Errorf("tune: sample distance %d out of range", r.SampleEvery)
		}
	}
	t := &Table{Version: TableVersion, Rows: sorted}
	t.sig = computeSig(t)
	return t, nil
}

// Default returns the static reference table. The bands follow the measured
// shape of the build+probe cost on current x86-64 and arm64 parts, and are
// deliberately coarse so results stay explainable:
//
//	n <= 256     f=8,  k=8  — trees this small are one or two levels, and
//	                          a small f keeps the single merge's tournament
//	                          tree tiny.
//	n <= 65536   f=16, k=16 — the halved fanout keeps a sample row (4·16
//	                          bytes) inside one cache line, which is what
//	                          the SoA layout optimizes for.
//	larger       f=32, k=32 — the paper's constants; at this size the
//	                          O(log_f n) level count dominates and the
//	                          wider fanout wins back the extra compares.
func Default() *Table {
	t, err := NewTable([]Row{
		{MaxN: 256, Fanout: 8, SampleEvery: 8},
		{MaxN: 65536, Fanout: 16, SampleEvery: 16},
		{MaxN: 1 << 62, Fanout: 32, SampleEvery: 32},
	})
	if err != nil {
		//lint:invariant the static rows above satisfy NewTable's fanout/sample bounds by inspection
		panic(err)
	}
	return t
}

// Choose returns the parameters for a partition of n elements: the first
// row whose MaxN covers n, or the last row as catch-all.
func (t *Table) Choose(n int) mst.Choice {
	for _, r := range t.Rows {
		if n <= r.MaxN {
			return mst.Choice{Fanout: r.Fanout, SampleEvery: r.SampleEvery}
		}
	}
	last := t.Rows[len(t.Rows)-1]
	return mst.Choice{Fanout: last.Fanout, SampleEvery: last.SampleEvery}
}

// Sig returns a stable signature of the table's exact contents, suitable
// for folding into structure cache keys.
func (t *Table) Sig() string {
	if t.sig == "" {
		t.sig = computeSig(t)
	}
	return t.sig
}

func computeSig(t *Table) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d", t.Version)
	for _, r := range t.Rows {
		fmt.Fprintf(h, "|%d:%d:%d", r.MaxN, r.Fanout, r.SampleEvery)
	}
	return fmt.Sprintf("v%d-%016x", t.Version, h.Sum64())
}

// Encode writes the table as versioned JSON.
func (t *Table) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Decode reads a table written by Encode, validating the format version and
// re-establishing the row order and signature.
func Decode(r io.Reader) (*Table, error) {
	var raw Table
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("tune: decoding table: %w", err)
	}
	if raw.Version != TableVersion {
		return nil, fmt.Errorf("tune: table version %d, want %d", raw.Version, TableVersion)
	}
	return NewTable(raw.Rows)
}

// Save writes the table to path atomically (write-then-rename).
func (t *Table) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a table from path.
func Load(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
