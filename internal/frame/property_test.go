package frame

import (
	"math/rand"
	"testing"
)

// TestRangesWithinBoundsProperty checks the structural invariants tying
// Ranges to Bounds for random specifications: every post-exclusion range
// lies inside the pre-exclusion bounds, ranges are sorted, disjoint and
// non-empty.
func TestRangesWithinBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		keys := make([]int64, n)
		groups := make([]int32, n)
		cur := int64(0)
		g := int32(0)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(3) > 0 {
				cur += rng.Int63n(3) // duplicates allowed
				if cur != keys[i-1] {
					g++
				}
			}
			keys[i] = cur
			groups[i] = g
		}
		spec := Spec{
			Mode:    Mode(rng.Intn(3)),
			Exclude: Exclusion(rng.Intn(4)),
		}
		randBound := func(start bool) Bound {
			switch rng.Intn(4) {
			case 0:
				if start {
					return Bound{Type: UnboundedPreceding}
				}
				return Bound{Type: UnboundedFollowing}
			case 1:
				return Bound{Type: Preceding, Offset: int64(rng.Intn(5))}
			case 2:
				return Bound{Type: CurrentRow}
			default:
				return Bound{Type: Following, Offset: int64(rng.Intn(5))}
			}
		}
		spec.Start = randBound(true)
		spec.End = randBound(false)
		c, err := NewComputer(spec, n, keys, groups)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < n; row++ {
			lo, hi := c.Bounds(row)
			if lo < 0 || hi > n || lo > hi {
				t.Fatalf("trial %d row %d: bounds [%d,%d) invalid", trial, row, lo, hi)
			}
			ranges := c.Ranges(row, nil)
			total := 0
			prevHi := -1
			for _, r := range ranges {
				if r[0] >= r[1] {
					t.Fatalf("trial %d row %d: empty range %v emitted", trial, row, r)
				}
				if r[0] < lo || r[1] > hi {
					t.Fatalf("trial %d row %d: range %v outside bounds [%d,%d)", trial, row, r, lo, hi)
				}
				if r[0] <= prevHi {
					t.Fatalf("trial %d row %d: ranges unsorted/overlapping: %v", trial, row, ranges)
				}
				prevHi = r[1] - 1
				total += r[1] - r[0]
			}
			if total > hi-lo {
				t.Fatalf("trial %d row %d: exclusion grew the frame", trial, row)
			}
			// NO OTHERS must keep the frame intact.
			if spec.Exclude == ExcludeNoOthers && total != hi-lo {
				t.Fatalf("trial %d row %d: NO OTHERS changed the frame", trial, row)
			}
			// EXCLUDE CURRENT ROW removes at most one row.
			if spec.Exclude == ExcludeCurrentRow && (hi-lo)-total > 1 {
				t.Fatalf("trial %d row %d: current-row exclusion removed %d rows", trial, row, (hi-lo)-total)
			}
		}
	}
}

// TestMonotonicFramesProperty: with constant offsets, both bounds must be
// non-decreasing in the row position — the property incremental engines
// exploit (§3.2).
func TestMonotonicFramesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		keys := make([]int64, n)
		for i := 1; i < n; i++ {
			keys[i] = keys[i-1] + rng.Int63n(4)
		}
		groups := make([]int32, n)
		for i := 1; i < n; i++ {
			groups[i] = groups[i-1]
			if keys[i] != keys[i-1] {
				groups[i]++
			}
		}
		spec := Spec{Mode: Mode(rng.Intn(3))}
		starts := []Bound{{Type: UnboundedPreceding}, {Type: Preceding, Offset: int64(rng.Intn(4))}, {Type: CurrentRow}, {Type: Following, Offset: int64(rng.Intn(4))}}
		ends := []Bound{{Type: UnboundedFollowing}, {Type: Preceding, Offset: int64(rng.Intn(4))}, {Type: CurrentRow}, {Type: Following, Offset: int64(rng.Intn(4))}}
		spec.Start = starts[rng.Intn(len(starts))]
		spec.End = ends[rng.Intn(len(ends))]
		c, err := NewComputer(spec, n, keys, groups)
		if err != nil {
			t.Fatal(err)
		}
		prevLo, prevHi := 0, 0
		for row := 0; row < n; row++ {
			lo, hi := c.Bounds(row)
			if lo < hi { // empty frames may clamp non-monotonically
				if lo < prevLo || hi < prevHi {
					t.Fatalf("trial %d (spec %+v) row %d: bounds [%d,%d) moved backwards from [%d,%d)",
						trial, spec, row, lo, hi, prevLo, prevHi)
				}
				prevLo, prevHi = lo, hi
			}
		}
	}
}
