package main

import (
	"fmt"

	"holistic"
	"holistic/internal/tpch"
)

// runFig12 reproduces Figure 12: throughput of a framed median as the
// window frame gets increasingly non-monotonic. The frame is
//
//	rows between m·h(x) preceding and 500 − m·h(x) following
//
// with h(x) = mod(extendedprice·7703, 499), the pseudorandom construction
// the paper reuses from Wesley and Xu. For m = 0 the frame is a plain
// 501-row sliding window — small enough that the incremental algorithm is
// competitive. Any non-monotonicity (m > 0) shrinks the overlap between
// consecutive frames, and the incremental algorithm falls behind the merge
// sort tree and eventually even behind the naive scan; the merge sort tree
// is oblivious.
func runFig12() {
	n := 100_000
	if *quick {
		n = 30_000
	}
	if *full {
		n = 400_000
	}
	l := lineitem(n)
	algs := []algorithm{algMST, algIncremental, algNaive}
	header := []string{"non-monotonicity m"}
	for _, a := range algs {
		header = append(header, a.String())
	}
	var rows [][]string
	for _, m := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		row := []string{fmt.Sprintf("%.2f", m)}
		for _, a := range algs {
			if a == algNaive && float64(n)*501 > quadraticBudget {
				row = append(row, "skip")
				continue
			}
			d := measure(a, median, l, nonMonotonic(l, m), 0)
			row = append(row, throughput(n, d)+"/s")
		}
		rows = append(rows, row)
	}
	printTable(header, rows)
	fmt.Printf("  (n = %d, frame ~501 rows; paper: incremental loses to MST at any m > 0 and drops below naive as m grows)\n", n)
}

// nonMonotonic is Figure 12's frame at non-monotonicity m: rows between
// m·h(x) preceding and 500 − m·h(x) following, with h read per input row
// (frame bound expressions see original row ids).
func nonMonotonic(l *tpch.Lineitem, m float64) rowsFrame {
	h := make([]int64, l.Len())
	for i := range h {
		cents := int64(l.ExtendedPrice[i] * 100)
		h[i] = cents * 7703 % 499
		if h[i] < 0 {
			h[i] += 499
		}
	}
	preceding := func(row int) int64 { return int64(m * float64(h[row])) }
	following := func(row int) int64 { return 500 - int64(m*float64(h[row])) }
	return rowsFrame{
		frame:     holistic.Rows(holistic.PrecedingBy(preceding), holistic.FollowingBy(following)),
		preceding: preceding,
		following: following,
	}
}
