package core

import (
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/oracle"
)

// TestOperatorSoak is a heavier randomized sweep than the standard
// reference test: more trials, bigger tables, every tree variant, rotating
// window shapes. Skipped under -short.
func TestOperatorSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 40; trial++ {
		n := []int{3, 9, 24, 47, 80, 111}[trial%6]
		tab := randTable(rng, n)
		fs := oracle.RandFrame(rng)
		w := &WindowSpec{
			Frame:    fs,
			FrameSet: true,
		}
		switch trial % 3 {
		case 0:
			w.OrderBy = []SortKey{{Column: "d"}}
		case 1:
			w.OrderBy = []SortKey{{Column: "d", Desc: true, NullsSmallest: rng.Intn(2) == 0}}
		default:
			w.OrderBy = []SortKey{{Column: "d"}, {Column: "v", Desc: true}}
			// Multi-key window order cannot drive RANGE arithmetic.
			if fs.Mode == frame.Range && needsRangeKeys(fs) {
				w.OrderBy = w.OrderBy[:1]
			}
		}
		if rng.Intn(3) > 0 {
			w.PartitionBy = []string{"g"}
			if rng.Intn(3) == 0 {
				w.PartitionBy = append(w.PartitionBy, "s")
			}
		}
		w.Funcs = allFuncSpecs(rng)
		opt := Options{TaskSize: []int{8, 64, 1 << 20}[trial%3]}
		res, err := Run(tab, w, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("soak trial %d %v (%s)", trial, f.Name, f.Output)
			compareToReference(t, tab, w, f, res.Column(f.Output), label)
		}
	}
}
