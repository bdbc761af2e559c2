package segment_test

import (
	"testing"

	"holistic/internal/lattice"
)

// TestSegmentedEquivalence is segment's part of the lattice: each table is
// written as four segments, reopened and required to load bit for bit as
// written; every window function's answers over it must then equal, bit for
// bit, the in-RAM answers, and each neighbour statement over the same
// structure cache the oracle's.
func TestSegmentedEquivalence(t *testing.T) {
	lattice.Rig{Seed: 22, Trials: 6, Storage: []lattice.Storage{lattice.RAM, lattice.Segment}}.Run(t)
}
