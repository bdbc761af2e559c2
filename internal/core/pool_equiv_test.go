package core

import (
	"math"
	"testing"

	"holistic/internal/mst"
)

// Pooled scratch must be invisible in results: whatever a previous request
// left in a recycled buffer, the next evaluation returns the reference's
// answer. A divergence means a pooled buffer leaked into retained state or
// was handed out dirty where zeroed memory was assumed.

// assertColumnsIdentical compares two result columns exactly — float values
// by bit pattern, not tolerance, since both runs execute the same arithmetic.
func assertColumnsIdentical(t *testing.T, label string, pooled, plain *Column) {
	t.Helper()
	if pooled.Len() != plain.Len() || pooled.Kind() != plain.Kind() {
		t.Fatalf("%s: shape mismatch: len %d/%d kind %v/%v",
			label, pooled.Len(), plain.Len(), pooled.Kind(), plain.Kind())
	}
	for i := 0; i < pooled.Len(); i++ {
		if pooled.IsNull(i) != plain.IsNull(i) {
			t.Fatalf("%s row %d: null mismatch: pooled=%v plain=%v",
				label, i, pooled.IsNull(i), plain.IsNull(i))
		}
		if pooled.IsNull(i) {
			continue
		}
		switch pooled.Kind() {
		case Int64:
			if pooled.Int64(i) != plain.Int64(i) {
				t.Fatalf("%s row %d: %d != %d", label, i, pooled.Int64(i), plain.Int64(i))
			}
		case Float64:
			if math.Float64bits(pooled.Float64(i)) != math.Float64bits(plain.Float64(i)) {
				t.Fatalf("%s row %d: %v != %v (bitwise)", label, i, pooled.Float64(i), plain.Float64(i))
			}
		case String:
			if pooled.StringAt(i) != plain.StringAt(i) {
				t.Fatalf("%s row %d: %q != %q", label, i, pooled.StringAt(i), plain.StringAt(i))
			}
		case Bool:
			if pooled.Bool(i) != plain.Bool(i) {
				t.Fatalf("%s row %d: %v != %v", label, i, pooled.Bool(i), plain.Bool(i))
			}
		}
	}
}

func TestPoolEquivalenceRandomized(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	referenceSweep{
		seed: 321, trials: trials, sizes: []int{0, 1, 3, 13, 40, 120},
		trees:    []mst.Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}},
		taskSize: 64,
		rerun:    true,
	}.run(t)
}
