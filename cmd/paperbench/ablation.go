package main

import (
	"fmt"
	"time"

	"holistic"
	"holistic/internal/mst"
)

// runAblation measures the design choices DESIGN.md calls out:
//
//  1. fractional cascading on/off (Figure 2 vs Figure 3),
//  2. task-parallel vs single-task incremental evaluation (§3.2's state
//     rebuild penalty, visible even on one core).
func runAblation() {
	n := 500_000
	if *quick {
		n = 100_000
	}

	// 1. Fractional cascading.
	fmt.Println("  -- fractional cascading (windowed rank, single-threaded) --")
	var rows [][]string
	for _, noCascade := range []bool{false, true} {
		d := fig13Workload(n, mst.Options{NoCascading: noCascade})
		name := "cascading (O(log n) probe)"
		if noCascade {
			name = "no cascading (O(log^2 n) probe)"
		}
		rows = append(rows, []string{name, d.Round(time.Millisecond).String()})
	}
	printTable([]string{"variant", "build+probe"}, rows)

	// 2. Task-based parallelism penalty of the incremental competitor: with
	// 20 000-row tasks every task rebuilds its frame state; with a single
	// task it does not. The difference is pure rebuild overhead (§3.2) and
	// shows even on one core.
	fmt.Println("  -- incremental distinct count: single task vs 20000-row tasks (§3.2) --")
	in := n
	frame := 20_000
	table := lineitem(in).Table()
	w := shipdateWindow(slidingRows(frame))
	rows = nil
	for _, taskSize := range []int{in, 20_000} {
		opt := holistic.Options{TaskSize: taskSize}
		d := timeIt(func() {
			_, err := holistic.RunOptions(table, w, opt, distinctOf(holistic.EngineIncremental))
			die(err)
		})
		name := fmt.Sprintf("task size %d", taskSize)
		if taskSize == in {
			name = "single task (pure serial algorithm)"
		}
		rows = append(rows, []string{name, d.Round(time.Millisecond).String(), throughput(in, d) + "/s"})
	}
	printTable([]string{"variant", "time", "throughput"}, rows)
	fmt.Printf("  (n = %d, frame = %d: each of the %d tasks re-aggregates up to a full frame before producing output)\n", in, frame, (in+19999)/20000)
}
