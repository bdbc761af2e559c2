package holistic

import (
	"math"
	"sort"
	"testing"
	"time"

	"holistic/internal/tpch"
)

// TestMonthlyActiveUsers is the paper's §1 motivating query:
//
//	select o_orderdate, count(distinct o_custkey) over w
//	from orders
//	window w as (order by o_orderdate
//	             range between '1 month' preceding and current row)
func TestMonthlyActiveUsers(t *testing.T) {
	dates := []int64{0, 5, 10, 35, 36, 40, 70}
	cust := []int64{1, 2, 1, 2, 3, 2, 1}
	table := MustNewTable(
		NewInt64Column("o_orderdate", dates, nil),
		NewInt64Column("o_custkey", cust, nil),
	)
	res, err := Run(table,
		Over().OrderBy(Asc("o_orderdate")).
			Frame(Range(Preceding(30), CurrentRow())),
		CountDistinct("o_custkey").As("mau"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Manually: frames are value ranges [d-30, d].
	want := []int64{1, 2, 2, 2, 3, 3, 2}
	for i, w := range want {
		if got := res.Column("mau").Int64(i); got != w {
			t.Fatalf("row %d (date %d): mau = %d, want %d", i, dates[i], got, w)
		}
	}
}

// TestTPCCLeaderboard is the paper's §2.4 composite query: for every TPC-C
// submission, statistics against all PREVIOUS submissions only.
func TestTPCCLeaderboard(t *testing.T) {
	r := tpch.GenerateTPCCResults(300, 1)
	table := r.Table()
	w := Over().OrderBy(Asc("submission_date")).
		Frame(Range(UnboundedPreceding(), CurrentRow()))
	res, err := Run(table, w,
		CountDistinct("dbsystem").As("competitors"),
		Rank(Desc("tps")).As("rank"),
		FirstValue("tps", Desc("tps")).As("best_tps"),
		FirstValue("dbsystem", Desc("tps")).As("best_system"),
		Lead("tps", 1, Desc("tps")).As("next_best_tps"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force verification directly against the SQL semantics.
	n := table.Rows()
	for i := 0; i < n; i++ {
		var frameRows []int
		for j := 0; j < n; j++ {
			if r.SubmissionDate[j] <= r.SubmissionDate[i] {
				frameRows = append(frameRows, j)
			}
		}
		distinct := map[string]bool{}
		rank := 1
		bestTPS := math.Inf(-1)
		bestSys := ""
		bestIdx := -1
		for _, j := range frameRows {
			distinct[r.System[j]] = true
			if r.TPS[j] > r.TPS[i] {
				rank++
			}
			if r.TPS[j] > bestTPS {
				bestTPS = r.TPS[j]
				bestSys = r.System[j]
				bestIdx = j
			}
		}
		if got := res.Column("competitors").Int64(i); got != int64(len(distinct)) {
			t.Fatalf("row %d: competitors %d, want %d", i, got, len(distinct))
		}
		if got := res.Column("rank").Int64(i); got != int64(rank) {
			t.Fatalf("row %d: rank %d, want %d", i, got, rank)
		}
		if got := res.Column("best_tps").Float64(i); got != bestTPS {
			t.Fatalf("row %d: best tps %v, want %v", i, got, bestTPS)
		}
		if got := res.Column("best_system").StringAt(i); got != bestSys {
			t.Fatalf("row %d: best system %q, want %q (tps %v)", i, got, bestSys, bestTPS)
		}
		// Lead(tps, 1 ORDER BY tps DESC) of the best row would be the
		// second best; for row i it is the next-best after row i itself.
		var below []float64
		for _, j := range frameRows {
			if r.TPS[j] < r.TPS[i] || (r.TPS[j] == r.TPS[i] && j > i) {
				below = append(below, r.TPS[j])
			}
		}
		next := res.Column("next_best_tps")
		if len(below) == 0 {
			if !next.IsNull(i) {
				t.Fatalf("row %d: next best should be NULL", i)
			}
		} else {
			wantNext := math.Inf(-1)
			for _, v := range below {
				if v > wantNext {
					wantNext = v
				}
			}
			if next.IsNull(i) || next.Float64(i) != wantNext {
				t.Fatalf("row %d: next best %v, want %v", i, next.Float64(i), wantNext)
			}
		}
		_ = bestIdx
	}
}

// TestMovingP99 is the paper's §1 delivery-time percentile query shape:
// percentile over a sliding one-week window of ship dates.
func TestMovingP99(t *testing.T) {
	l := tpch.GenerateLineitem(2000, 2)
	delay := make([]int64, l.Len())
	for i := range delay {
		delay[i] = l.ReceiptDate[i] - l.ShipDate[i]
	}
	table := MustNewTable(
		NewInt64Column("l_shipdate", l.ShipDate, nil),
		NewInt64Column("delay", delay, nil),
	)
	res, err := Run(table,
		Over().OrderBy(Asc("l_shipdate")).
			Frame(Range(Preceding(7), CurrentRow())),
		PercentileDisc(0.99, Asc("delay")).As("p99"),
	)
	if err != nil {
		t.Fatal(err)
	}
	p99 := res.Column("p99")
	for i := 0; i < table.Rows(); i++ {
		// The p99 delay is itself a delay from the window.
		if p99.IsNull(i) {
			t.Fatalf("row %d: NULL p99 over non-empty frame", i)
		}
		v := p99.Int64(i)
		if v < 1 || v > 30 {
			t.Fatalf("row %d: p99 %d outside the 1..30 day domain", i, v)
		}
	}
	// Spot-check a few rows against brute force.
	for _, i := range []int{0, 100, 999, 1999} {
		var window []int64
		for j := 0; j < table.Rows(); j++ {
			if l.ShipDate[j] >= l.ShipDate[i]-7 && l.ShipDate[j] <= l.ShipDate[i] {
				window = append(window, delay[j])
			}
		}
		want := bruteDisc(window, 0.99)
		if got := p99.Int64(i); got != want {
			t.Fatalf("row %d: p99 %d, want %d", i, got, want)
		}
	}
}

func bruteDisc(vals []int64, p float64) int64 {
	sorted := append([]int64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// TestStockOrdersNonMonotonic is §2.2's non-constant frame bound example:
// compare each order against the median of all orders within its own
// good_for validity interval.
func TestStockOrdersNonMonotonic(t *testing.T) {
	s := tpch.GenerateStockOrders(1500, 3)
	table := s.Table()
	goodFor := s.GoodFor
	res, err := Run(table,
		Over().OrderBy(Asc("placement_time")).
			Frame(Range(CurrentRow(), FollowingBy(func(row int) int64 {
				return goodFor[row]
			}))),
		MedianDisc(Asc("price")).As("median_price"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// RANGE frames with per-row bounds: every row's median equals a scan of
	// its own validity interval.
	med := res.Column("median_price")
	for i := range s.Price {
		var window []float64
		for j := range s.Price {
			if s.PlacementTime[j] >= s.PlacementTime[i] &&
				s.PlacementTime[j] <= s.PlacementTime[i]+goodFor[i] {
				window = append(window, s.Price[j])
			}
		}
		// PERCENTILE_DISC(0.5): k = ceil(0.5·n)-1 smallest.
		sort.Float64s(window)
		k := int(math.Ceil(0.5*float64(len(window)))) - 1
		if k < 0 {
			k = 0
		}
		if got := med.Float64(i); got != window[k] {
			t.Fatalf("row %d: median %v, want %v (window %d rows)", i, got, window[k], len(window))
		}
	}
}

// TestFrameExclusionComposition checks the §4.7 composition: a framed
// distinct count with EXCLUDE GROUP, against the naive semantics.
func TestFrameExclusionComposition(t *testing.T) {
	vals := []int64{1, 2, 1, 3, 2, 2, 4, 1, 3, 4, 4, 1}
	order := make([]int64, len(vals))
	for i := range order {
		order[i] = int64(i / 2) // peer pairs
	}
	table := MustNewTable(
		NewInt64Column("o", order, nil),
		NewInt64Column("v", vals, nil),
	)
	res, err := Run(table,
		Over().OrderBy(Asc("o")).
			Frame(Rows(Preceding(5), Following(2)).ExcludeGroup()),
		CountDistinct("v").As("cd"),
		SumDistinct("v").As("sd"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		seen := map[int64]bool{}
		sum := int64(0)
		lo := max(0, i-5)
		hi := min(len(vals), i+3)
		for j := lo; j < hi; j++ {
			if order[j] == order[i] { // peer => excluded
				continue
			}
			if !seen[vals[j]] {
				seen[vals[j]] = true
				sum += vals[j]
			}
		}
		if got := res.Column("cd").Int64(i); got != int64(len(seen)) {
			t.Fatalf("row %d: count distinct %d, want %d", i, got, len(seen))
		}
		sd := res.Column("sd")
		if len(seen) == 0 {
			if !sd.IsNull(i) {
				t.Fatalf("row %d: sum distinct should be NULL", i)
			}
		} else if sd.Int64(i) != sum {
			t.Fatalf("row %d: sum distinct %d, want %d", i, sd.Int64(i), sum)
		}
	}
}

func TestProfileCollection(t *testing.T) {
	l := tpch.GenerateLineitem(5000, 6)
	root := NewTrace("run")
	_, err := RunOptions(l.Table(),
		Over().OrderBy(Asc("l_shipdate")).Frame(Rows(UnboundedPreceding(), CurrentRow())),
		Options{Trace: root},
		CountDistinct("l_partkey").As("cd"),
	)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	phases := root.PhaseTotals()
	if len(phases) < 4 {
		t.Fatalf("expected >= 4 phases, got %v", phases)
	}
	names := map[string]bool{}
	var total time.Duration
	for _, ph := range phases {
		names[ph.Name] = true
		if ph.Total < 0 {
			t.Fatalf("negative duration in %v", ph)
		}
		total += ph.Total
	}
	for _, want := range []string{"partition+order sort", "preprocess: prevIdcs", "build merge sort tree", "probe"} {
		if !names[want] {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
	if total <= 0 {
		t.Fatal("zero total")
	}
}
