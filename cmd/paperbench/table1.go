package main

import (
	"fmt"
	"math"
	"time"

	"holistic/internal/parallel"
)

// runTable1 validates Table 1 empirically: for every (aggregate, algorithm)
// pair it measures single-threaded runtime at two input sizes (frame fixed
// at 5 % of the smaller input) and reports the observed growth factor when
// the input doubles. O(n log n) algorithms land near 2, O(n·w) algorithms
// with the frame growing proportionally land near 4.
func runTable1() {
	n0 := 40_000
	if *quick {
		n0 = 16_000
	}
	if *full {
		n0 = 120_000
	}
	n1 := 2 * n0

	type entry struct {
		agg    string
		fn     function
		alg    algorithm
		theory string
	}
	entries := []entry{
		{"dist. count", distinctCount, algIncremental, "O(n) serial"},
		{"dist. count", distinctCount, algMST, "O(n log n)"},
		{"percentile", median, algIncremental, "O(n^2)"},
		{"percentile", median, algNaive, "O(n^2)"},
		{"percentile", median, algSegTree, "O(n log^2 n)"},
		{"percentile", median, algOSTree, "O(n log n)"},
		{"percentile", median, algMST, "O(n log n)"},
		{"rank", rank, algOSTree, "O(n log n)"},
		{"rank", rank, algMST, "O(n log n)"},
	}

	prev := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prev)

	// The frame grows with n (5 %), the Table 1 scenario. The whole input
	// runs as one task: that isolates the serial algorithm from the
	// task-rebuild effect, which Table 1's serial column excludes.
	run := func(e entry, n int) time.Duration {
		return measure(e.alg, e.fn, lineitem(n), sliding(n/20), n)
	}

	header := []string{"aggregate", "algorithm", "theory (serial)", fmt.Sprintf("t(n=%d)", n0), fmt.Sprintf("t(n=%d)", n1), "growth", "log2(growth)"}
	var rows [][]string
	for _, e := range entries {
		d0 := run(e, n0)
		d1 := run(e, n1)
		g := d1.Seconds() / d0.Seconds()
		rows = append(rows, []string{
			e.agg, e.alg.String(), e.theory,
			d0.Round(time.Millisecond).String(), d1.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", g), fmt.Sprintf("%.2f", math.Log2(g)),
		})
	}
	printTable(header, rows)
	fmt.Println("  (frame = 5% of n, single worker, one task; growth ~2 = (near-)linear/linearithmic, ~4 = quadratic)")
}
