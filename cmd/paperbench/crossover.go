package main

import (
	"fmt"
	"time"
)

// runCrossover locates the frame sizes at which each competitor falls
// behind the merge sort tree for a framed median — the intersection points
// §6.4 reports as ~130 rows (naive), ~700 (incremental) and ~20 000 (order
// statistic tree) on their 40-thread machine. The shape (naive first,
// incremental next, ostree last) must reproduce; the absolute positions
// shift with the hardware's serial/parallel balance.
func runCrossover() {
	n := 150_000
	if *quick {
		n = 40_000
	}
	l := lineitem(n)
	medianTime := func(a algorithm, frame int) time.Duration {
		return measure(a, median, l, sliding(frame), 0)
	}

	comps := []struct {
		alg   algorithm
		paper string
	}{
		{algNaive, "~130"},
		{algIncremental, "~700"},
		{algOSTree, "~20000"},
	}
	var rows [][]string
	for _, c := range comps {
		cross := findCrossover(n, func(frame int) bool {
			if c.alg.estimatedOps(median, n, frame) > quadraticBudget {
				return true // too slow to even measure: definitely behind
			}
			return medianTime(c.alg, frame) > medianTime(algMST, frame)
		})
		rendered := fmt.Sprintf("%d", cross)
		if cross >= n {
			rendered = fmt.Sprintf(">= %d (never crossed)", n)
		}
		rows = append(rows, []string{c.alg.String(), rendered, c.paper})
	}
	printTable([]string{"competitor", "loses to MST at frame size", "paper (SF1, 40 threads)"}, rows)
	fmt.Printf("  (n = %d, framed median; positions shift with the serial/parallel balance, the ordering must not)\n", n)
}

// findCrossover binary-searches the smallest frame size (over a geometric
// grid) at which slowerThanMST holds and stays held for the next grid step,
// damping measurement noise.
func findCrossover(n int, slowerThanMST func(frame int) bool) int {
	grid := []int{}
	for f := 8; f < n; f = f * 3 / 2 {
		grid = append(grid, f)
	}
	lo, hi := 0, len(grid) // first grid index that is (stably) slower
	for lo < hi {
		mid := (lo + hi) / 2
		slower := slowerThanMST(grid[mid])
		if slower && mid+1 < len(grid) {
			slower = slowerThanMST(grid[mid+1]) // require persistence
		}
		if slower {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(grid) {
		return n
	}
	return grid[lo]
}
