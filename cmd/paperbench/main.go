// Command paperbench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment prints the same rows/series the paper
// plots; EXPERIMENTS.md records the comparison against the published
// numbers.
//
// Usage:
//
//	paperbench -experiment all            # everything, default sizes
//	paperbench -experiment fig11 -full    # one experiment, paper-scale input
//	paperbench -experiment fig13 -quick   # coarse grid for a fast look
//
// Experiments: table1, fig9, fig10, fig11, fig12, fig13, fig14, crossover,
// memory, ablation, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run (table1, fig9, fig10, fig11, fig12, fig13, fig14, crossover, memory, ablation, all)")
	quick      = flag.Bool("quick", false, "shrink inputs for a fast smoke run")
	full       = flag.Bool("full", false, "paper-scale inputs (slow on small machines)")
	seed       = flag.Int64("seed", 42, "data generator seed")
)

type experimentFunc struct {
	name string
	desc string
	run  func()
}

func main() {
	flag.Parse()
	all := []experimentFunc{
		{"table1", "measured complexity classes of the competing algorithms", runTable1},
		{"fig9", "framed median on 20k rows: SQL formulations vs native algorithms", runFig9},
		{"fig10", "throughput of holistic functions for increasing input sizes", runFig10},
		{"fig11", "throughput of a framed median for increasing frame sizes", runFig11},
		{"fig12", "throughput under increasingly non-monotonic frames", runFig12},
		{"fig13", "merge sort tree fanout / pointer sampling parameter grid", runFig13},
		{"fig14", "execution phase breakdown of a framed distinct count", runFig14},
		{"crossover", "frame sizes where competitors fall behind the MST (§6.4)", runCrossover},
		{"memory", "merge sort tree memory vs fanout and sampling (§6.6)", runMemory},
		{"ablation", "design-choice ablations (cascading, task parallelism)", runAblation},
	}
	fmt.Printf("paperbench: %d logical CPUs, GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	names := strings.Split(*experiment, ",")
	ran := 0
	for _, want := range names {
		want = strings.TrimSpace(want)
		for _, e := range all {
			if want == "all" || want == e.name {
				fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
				start := time.Now()
				e.run()
				fmt.Printf("--- %s done in %v ---\n\n", e.name, time.Since(start).Round(time.Millisecond))
				ran++
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// throughput formats tuples/second.
func throughput(n int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	tps := float64(n) / d.Seconds()
	switch {
	case tps >= 1e6:
		return fmt.Sprintf("%6.2fM", tps/1e6)
	case tps >= 1e3:
		return fmt.Sprintf("%6.2fk", tps/1e3)
	default:
		return fmt.Sprintf("%7.1f", tps)
	}
}

// timeIt measures a run, taking the best of several repetitions so one-off
// GC pauses do not distort a point: three repetitions for fast runs, two
// for medium ones, one only when a single run already exceeds a second.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	best := time.Since(start)
	reps := 0
	switch {
	case best < 200*time.Millisecond:
		reps = 2
	case best < time.Second:
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start = time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// printTable renders rows with aligned columns.
func printTable(header []string, rows [][]string) {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
