package main

import (
	"math"
	"math/rand"
	"testing"

	"holistic"
	"holistic/internal/tpch"
)

func TestPlanSimulationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prices := make([]float64, 400)
	for i := range prices {
		prices[i] = float64(rng.Intn(1000))
	}
	const w = 37
	selfJoin := sqlSelfJoinMedian(prices, w)
	correlated := sqlCorrelatedMedian(prices, w)
	client := clientSideMedian(prices, w)
	for i := range prices {
		if selfJoin[i] != correlated[i] {
			t.Fatalf("row %d: self-join %v != correlated %v", i, selfJoin[i], correlated[i])
		}
		if client[i].(float64) != selfJoin[i] {
			t.Fatalf("row %d: client %v != self-join %v", i, client[i], selfJoin[i])
		}
		// Reference median of the frame.
		lo := i - w + 1
		if lo < 0 {
			lo = 0
		}
		want := discMedian(prices[lo : i+1])
		if selfJoin[i] != want {
			t.Fatalf("row %d: median %v, want %v", i, selfJoin[i], want)
		}
	}
}

func TestDiscMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 2}, 1},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 3, 2, 1}, 2},
		{nil, 0},
	}
	for _, c := range cases {
		if got := discMedian(c.in); got != c.want {
			t.Fatalf("discMedian(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInterpretedExpr(t *testing.T) {
	lt := &binaryExpr{op: "<", lhs: &fieldRef{"a"}, rhs: &fieldRef{"b"}}
	env := map[string]any{"a": 1.0, "b": 2.0}
	if lt.eval(env) != true {
		t.Fatal("1 < 2 must hold")
	}
	env["a"], env["b"] = int64(5), int64(3)
	if lt.eval(env) != false {
		t.Fatal("5 < 3 must not hold")
	}
	add := &binaryExpr{op: "+", lhs: &fieldRef{"a"}, rhs: &fieldRef{"b"}}
	if add.eval(env) != int64(8) {
		t.Fatal("5 + 3 must be 8")
	}
}

func TestEstimatedOps(t *testing.T) {
	// The naive scan must always look more expensive than the MST, and the
	// incremental median (linear step) more expensive than the incremental
	// distinct count (constant step).
	n, frame := 400_000, 20_000
	if algNaive.estimatedOps(median, n, frame) <= algMST.estimatedOps(median, n, frame) {
		t.Fatal("naive must estimate above MST")
	}
	if algIncremental.estimatedOps(median, n, frame) <= algIncremental.estimatedOps(distinctCount, n, frame) {
		t.Fatal("linear-step incremental must estimate above constant-step")
	}
}

// TestBaselinesMatchMST runs every (function, baseline) pair the figures
// measure and demands the holistic.Run column value for value: sliding
// frames of 1, 37 and 500 rows and Figure 12's non-monotonic frame, as one
// task (Table 1, the ablation) and in tasks smaller than the input, so task
// boundaries start from empty state mid-input.
func TestBaselinesMatchMST(t *testing.T) {
	l := tpch.GenerateLineitem(3000, 5)
	table := l.Table()
	pairs := map[function][]algorithm{
		median:        {algIncremental, algNaive, algOSTree, algSegTree},
		rank:          {algOSTree, algNaive},
		lead:          {algNaive},
		distinctCount: {algIncremental, algNaive},
	}
	frames := map[string]rowsFrame{
		"rows 1": sliding(1), "rows 37": sliding(37), "rows 500": sliding(500),
		"fig12 m=0.5": nonMonotonic(l, 0.5),
	}
	for name, fr := range frames {
		for fn, algs := range pairs {
			res, err := holistic.Run(table, shipdateWindow(fr.frame), fn.mst())
			if err != nil {
				t.Fatal(err)
			}
			want := res.Column("out")
			for _, a := range algs {
				for _, taskSize := range []int{l.Len(), 700} {
					got := runBaseline(l, a, fn, fr, taskSize)
					for row, v := range got {
						var w float64
						switch {
						case want.IsNull(row):
							w = math.NaN()
						case want.Kind() == holistic.Float64:
							w = want.Float64(row)
						default:
							w = float64(want.Int64(row))
						}
						if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
							t.Fatalf("%s %v on %v, tasks of %d: row %d = %v, MST %v", name, fn, a, taskSize, row, v, w)
						}
					}
				}
			}
		}
	}
}

func TestThroughputFormatting(t *testing.T) {
	if got := throughput(2_000_000, 1e9); got != "  2.00M" {
		t.Fatalf("2M/s = %q", got)
	}
	if got := throughput(2_000, 1e9); got != "  2.00k" {
		t.Fatalf("2k/s = %q", got)
	}
	if got := throughput(100, 0); got != "-" {
		t.Fatalf("zero duration = %q", got)
	}
}
