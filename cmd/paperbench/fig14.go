package main

import (
	"fmt"

	"holistic"
)

// runFig14 reproduces Figure 14: the phase breakdown of a framed (running)
// distinct count over lineitem. The paper's phases at SF 10 — partitioning
// and sorting for the window operator, Algorithm 1's populate/sort/compute
// steps, the tree build, and the embarrassingly parallel result
// computation — map onto the operator's trace spans as documented in
// EXPERIMENTS.md and DESIGN.md §9.
func runFig14() {
	n := 600_000 // SF 0.1
	if *quick {
		n = 100_000
	}
	if *full {
		n = 6_000_000 // SF 1
	}
	table := lineitem(n).Table()
	root := holistic.NewTrace("fig14")
	w := holistic.Over().OrderBy(holistic.Asc("l_shipdate")).
		Frame(holistic.Rows(holistic.UnboundedPreceding(), holistic.CurrentRow()))
	_, err := holistic.RunOptions(table, w, holistic.Options{Trace: root},
		holistic.CountDistinct("l_partkey").As("cd"))
	root.End()
	die(err)
	total := root.Duration()
	var rows [][]string
	for _, ph := range root.PhaseTotals() {
		rows = append(rows, []string{
			ph.Name,
			fmt.Sprintf("%v", ph.Total.Round(10_000)),
			fmt.Sprintf("%5.1f%%", 100*ph.Total.Seconds()/total.Seconds()),
		})
	}
	printTable([]string{"phase", "time", "share"}, rows)
	fmt.Printf("  (n = %d; paper at SF 10: 3.3s total, dominated by sorting and the probe phase)\n", n)
}
