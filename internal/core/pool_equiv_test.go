package core

import (
	"fmt"
	"math"
	"math/rand"
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

// TestPoolEquivalenceAllEngines repeats the check for the competitor engines
// that share newFiltered's pooled inclusion masks.
func TestPoolEquivalenceAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		n := []int{8, 40}[trial%2]
		tab := randTable(rng, n)
		fs := randFrame(rng)
		fs.Exclude = 0 // competitors reject exclusion
		w := &WindowSpec{
			OrderBy:  []SortKey{{Column: "d"}},
			Frame:    fs,
			FrameSet: true,
		}
		ordV := []SortKey{{Column: "v"}}
		w.Funcs = []FuncSpec{
			{Name: CountDistinct, Output: "c1", Arg: "v", Engine: EngineIncremental, Filter: "flt"},
			{Name: CountDistinct, Output: "c2", Arg: "v", Engine: EngineNaive, Filter: "flt"},
			{Name: Rank, Output: "r1", OrderBy: ordV, Engine: EngineOSTree},
			{Name: Rank, Output: "r2", OrderBy: ordV, Engine: EngineSegmentTree},
			{Name: FirstValue, Output: "f1", Arg: "s", OrderBy: ordV, Engine: EngineSegmentTree, Filter: "flt"},
			{Name: FirstValue, Output: "f2", Arg: "s", OrderBy: ordV, Engine: EngineNaive, Filter: "flt"},
		}
		first, err := Run(tab, w, Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		again, err := Run(tab, w, Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d rerun: %v", trial, err)
		}
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d engine %v %v", trial, f.Engine, f.Name)
			compareToReference(t, tab, w, f, first.Column(f.Output), label)
			assertColumnsIdentical(t, label+" rerun", again.Column(f.Output), first.Column(f.Output))
		}
	}
}
