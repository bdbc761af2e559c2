package main

import "fmt"

// runFig10 reproduces Figure 10: throughput of median, rank, lead and
// distinct count for increasing input sizes, frame = 5 % of the input. The
// paper's finding: naive and incremental algorithms are capped below ~0.6M
// tuples/s, the order statistic tree degrades once the frame approaches the
// task size, and the merge sort tree keeps scaling.
func runFig10() {
	sizes := []int{20_000, 50_000, 100_000, 200_000, 400_000, 800_000}
	if *quick {
		sizes = []int{20_000, 50_000, 100_000}
	}
	if *full {
		sizes = append(sizes, 1_600_000, 2_500_000)
	}

	series := []struct {
		fn   function
		algs []algorithm
	}{
		{median, []algorithm{algMST, algOSTree, algIncremental, algNaive}},
		{rank, []algorithm{algMST, algOSTree, algNaive}},
		{lead, []algorithm{algMST, algNaive}},
		{distinctCount, []algorithm{algMST, algIncremental, algNaive}},
	}

	for _, s := range series {
		fmt.Printf("  -- %v (ORDER BY l_extendedprice%s) --\n", s.fn,
			map[bool]string{true: "", false: ", dedup on l_partkey"}[s.fn != distinctCount])
		header := []string{"n", "frame"}
		for _, a := range s.algs {
			header = append(header, a.String())
		}
		var rows [][]string
		for _, n := range sizes {
			frame := n / 20 // 5 %
			if frame < 1 {
				frame = 1
			}
			row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", frame)}
			for _, a := range s.algs {
				if a.estimatedOps(s.fn, n, frame) > quadraticBudget {
					row = append(row, "skip")
					continue
				}
				d := measure(a, s.fn, lineitem(n), sliding(frame), 0)
				row = append(row, throughput(n, d)+"/s")
			}
			rows = append(rows, row)
		}
		printTable(header, rows)
	}
	fmt.Println("  (algorithms are skipped once their estimated cost exceeds the budget)")
}
