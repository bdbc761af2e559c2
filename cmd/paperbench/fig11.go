package main

import (
	"fmt"

	"holistic"
)

// runFig11 reproduces Figure 11: throughput of a framed median for
// increasing frame sizes on a fixed input. The paper's crossover points on
// TPC-H SF 1: naive loses to the merge sort tree at a frame of ~130 rows,
// incremental at ~700, the order statistic tree at ~20 000 (the task size);
// the merge sort tree is flat throughout and still handles the 6M-row
// default frame at full speed.
func runFig11() {
	n := 200_000
	if *quick {
		n = 50_000
	}
	if *full {
		n = 1_000_000
	}
	l := lineitem(n)
	frames := []int{10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000}
	if *quick {
		frames = []int{10, 100, 1_000, 10_000}
	}
	algs := []algorithm{algMST, algOSTree, algIncremental, algNaive}
	header := []string{"frame size"}
	for _, a := range algs {
		header = append(header, a.String())
	}
	var rows [][]string
	for _, frame := range frames {
		if frame > n {
			continue
		}
		row := []string{fmt.Sprintf("%d", frame)}
		for _, a := range algs {
			if a.estimatedOps(median, n, frame) > quadraticBudget {
				row = append(row, "skip")
				continue
			}
			d := measure(a, median, l, sliding(frame), 0)
			row = append(row, throughput(n, d)+"/s")
		}
		rows = append(rows, row)
	}
	// The whole-input default frame, which only the MST handles sensibly.
	unbounded := rowsFrame{frame: holistic.Rows(holistic.UnboundedPreceding(), holistic.CurrentRow())}
	d := measure(algMST, median, l, unbounded, 0)
	rows = append(rows, []string{"unbounded", throughput(n, d) + "/s", "skip", "skip", "skip"})
	printTable(header, rows)
	fmt.Printf("  (n = %d; paper crossovers on SF1: naive ~130, incremental ~700, order statistic tree ~20000)\n", n)
}
