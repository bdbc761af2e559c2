package main

import (
	"fmt"
	"math/rand"
	"time"

	"holistic/internal/mst"
	"holistic/internal/parallel"
)

// fig13Workload builds the §6.6 micro-benchmark: a single-threaded merge
// sort tree for a rank query over uniformly random integers, measuring
// build plus probe time. The probe is the windowed-rank query pattern —
// count entries below the row's own value inside a sliding frame — issued
// the way the window operator issues it: CountBelowBatch over 20,000-row
// chunks.
func fig13Workload(n int, opt mst.Options) time.Duration {
	rng := rand.New(rand.NewSource(*seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n))
	}
	frame := n / 20
	const chunk = 20_000
	lo, hi := make([]int32, chunk), make([]int32, chunk)
	thr, out := make([]int64, chunk), make([]int32, chunk)
	prev := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prev)
	opt.Serial = true
	start := time.Now()
	tree, err := mst.Build(keys, opt)
	die(err)
	sink := 0
	for first := 0; first < n; first += chunk {
		m := min(chunk, n-first)
		for q := 0; q < m; q++ {
			i := first + q
			lo[q], hi[q], thr[q] = int32(max(i-frame+1, 0)), int32(i+1), keys[i]
		}
		tree.CountBelowBatch(lo[:m], hi[:m], thr[:m], out[:m])
		for _, c := range out[:m] {
			sink += int(c)
		}
	}
	d := time.Since(start)
	if sink < 0 {
		panic("impossible")
	}
	return d
}

// runFig13 reproduces Figure 13: build+probe time of a windowed rank for a
// grid of fanout (f) and pointer-sampling (k) parameters, normalized to the
// paper's chosen configuration f = k = 32. The paper found f=16,k=4
// slightly faster but picked f=k=32 for its exponentially smaller memory
// footprint.
func runFig13() {
	n := 1_000_000
	fanouts := []int{2, 4, 8, 16, 32, 64, 128, 256}
	samples := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if *quick || !*full {
		n = 250_000
		fanouts = []int{2, 8, 16, 32, 64, 256}
		samples = []int{1, 4, 16, 32, 128, 1024}
	}
	base := fig13Workload(n, mst.Options{Fanout: 32, SampleEvery: 32})
	header := []string{"fanout \\ k"}
	for _, k := range samples {
		header = append(header, fmt.Sprintf("%d", k))
	}
	var rows [][]string
	for _, f := range fanouts {
		row := []string{fmt.Sprintf("%d", f)}
		for _, k := range samples {
			d := fig13Workload(n, mst.Options{Fanout: f, SampleEvery: k})
			row = append(row, fmt.Sprintf("%.2f", d.Seconds()/base.Seconds()))
		}
		rows = append(rows, row)
	}
	printTable(header, rows)
	fmt.Printf("  (n = %d, single-threaded, normalized to f=k=32 = 1.00; paper's Figure 13 normalizes absolute seconds)\n", n)
}

// runMemory reproduces the §6.6 memory accounting: tree element counts and
// bytes for the two configurations the paper contrasts (f=16,k=4 needs
// 12.4 GB on 100M elements, f=k=32 only 4.4 GB) plus the surrounding grid.
func runMemory() {
	n := 1_000_000
	if *quick {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(*seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n))
	}
	configs := []struct{ f, k int }{
		{2, 32}, {4, 32}, {8, 32}, {16, 4}, {16, 32}, {32, 4}, {32, 32}, {64, 32}, {256, 32},
	}
	header := []string{"fanout", "k", "levels", "elements", "pointers", "total bytes", "bytes/row"}
	var rows [][]string
	for _, c := range configs {
		tree, err := mst.Build(keys, mst.Options{Fanout: c.f, SampleEvery: c.k})
		die(err)
		s := tree.Stats()
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.f), fmt.Sprintf("%d", c.k),
			fmt.Sprintf("%d", s.Levels), fmt.Sprintf("%d", s.Elements),
			fmt.Sprintf("%d", s.Pointers), fmt.Sprintf("%d", s.Bytes),
			fmt.Sprintf("%.1f", float64(s.Bytes)/float64(n)),
		})
	}
	printTable(header, rows)
	fmt.Printf("  (n = %d; the paper reports 12.4 GB at f=16,k=4 vs 4.4 GB at f=k=32 on 100M rows — a ~2.8x ratio that should hold here)\n", n)
}
