package main

import (
	"fmt"
	"time"

	"holistic/internal/mst"
	"holistic/internal/segtree"
)

// runAblation measures the design choices DESIGN.md calls out:
//
//  1. fractional cascading (Figure 3) against Figure 2's tree, which
//     binary-searches every node it visits — the sorted-list segment tree
//     the baselines keep (segtree.SortedTree, f = 2), on the same keys and
//     frames,
//  2. task-parallel vs single-task incremental evaluation (§3.2's state
//     rebuild penalty, visible even on one core).
func runAblation() {
	n := 500_000
	if *quick {
		n = 100_000
	}

	// 1. Fractional cascading.
	fmt.Println("  -- fractional cascading (windowed rank, single-threaded) --")
	cascading := fig13Workload(n, mst.Options{})
	searching := rankWorkload(n, func(keys []int64) countBatch {
		st := segtree.NewSorted(keys)
		return func(lo, hi []int32, thr []int64, out []int32) {
			for q := range out {
				out[q] = int32(st.CountBelow(int(lo[q]), int(hi[q]), thr[q]))
			}
		}
	})
	rows := [][]string{
		{"cascading (O(log n) probe)", cascading.Round(time.Millisecond).String()},
		{"no cascading (O(log^2 n) probe, f = 2)", searching.Round(time.Millisecond).String()},
	}
	printTable([]string{"variant", "build+probe"}, rows)

	// 2. Task-based parallelism penalty of the incremental competitor: with
	// 20 000-row tasks every task rebuilds its frame state; with a single
	// task it does not. The difference is pure rebuild overhead (§3.2) and
	// shows even on one core.
	fmt.Println("  -- incremental distinct count: single task vs 20000-row tasks (§3.2) --")
	in := n
	frame := 20_000
	rows = nil
	for _, taskSize := range []int{in, 20_000} {
		d := measure(algIncremental, distinctCount, lineitem(in), sliding(frame), taskSize)
		name := fmt.Sprintf("task size %d", taskSize)
		if taskSize == in {
			name = "single task (pure serial algorithm)"
		}
		rows = append(rows, []string{name, d.Round(time.Millisecond).String(), throughput(in, d) + "/s"})
	}
	printTable([]string{"variant", "time", "throughput"}, rows)
	fmt.Printf("  (n = %d, frame = %d: each of the %d tasks re-aggregates up to a full frame before producing output)\n", in, frame, (in+19999)/20000)
}
