package holistic

import (
	"math"
	"testing"
)

// TestEveryBuilderRuns drives each public function constructor through a
// real evaluation, checking SQL-level invariants of the results.
func TestEveryBuilderRuns(t *testing.T) {
	n := 40
	d := make([]int64, n)
	v := make([]int64, n)
	fv := make([]float64, n)
	s := make([]string, n)
	flt := make([]bool, n)
	vNulls := make([]bool, n)
	for i := 0; i < n; i++ {
		d[i] = int64(i / 2)
		v[i] = int64((i * 13) % 7)
		fv[i] = float64(i%5) + 0.5
		s[i] = string(rune('a' + i%4))
		flt[i] = i%3 != 0
		vNulls[i] = i%9 == 0
	}
	table := MustNewTable(
		NewInt64Column("d", d, nil),
		NewInt64Column("v", v, vNulls),
		NewFloat64Column("fv", fv, nil),
		NewStringColumn("s", s, nil),
		NewBoolColumn("flt", flt, nil),
	)
	w := Over().OrderBy(Asc("d")).Frame(Rows(Preceding(7), Following(2)))
	funcs := []*Func{
		CountStar().As("f1"),
		Count("v").As("f2"),
		Sum("v").As("f3"),
		Sum("fv").As("f4"),
		Avg("fv").As("f5"),
		Min("s").As("f6"),
		Max("fv").As("f7"),
		CountDistinct("s").Filter("flt").As("f8"),
		SumDistinct("v").As("f9"),
		AvgDistinct("fv").As("f10"),
		Rank(Asc("v")).As("f11"),
		DenseRank(Desc("v")).As("f12"),
		PercentRank(Asc("fv")).As("f13"),
		RowNumber(Asc("v")).As("f14"),
		CumeDist(Asc("v")).As("f15"),
		Ntile(4, Asc("v")).As("f16"),
		PercentileDisc(0.25, Asc("fv")).As("f17"),
		PercentileCont(0.75, Asc("fv")).As("f18"),
		Median(Asc("fv")).As("f19"),
		MedianDisc(Asc("v")).As("f20"),
		NthValue("s", 2, Asc("v")).As("f21"),
		FirstValue("v", Asc("v")).IgnoreNulls().As("f22"),
		LastValue("fv", Asc("fv")).As("f23"),
		Lead("s", 1, Asc("v")).As("f24"),
		Lag("s", 2, Asc("v")).As("f25"),
		Sum("v").WithFrame(WholePartition()).As("f26"),
		Max("v").As("f27"),
		AscNullsFirstProbe(table),
	}
	res, err := Run(table, w, funcs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Rank-family invariants.
		rank := res.Column("f11").Int64(i)
		dense := res.Column("f12").Int64(i)
		rowno := res.Column("f14").Int64(i)
		size := res.Column("f1").Int64(i)
		if rank < 1 || rowno < 1 || dense < 1 {
			t.Fatalf("row %d: rank-family below 1", i)
		}
		if rank > rowno {
			t.Fatalf("row %d: rank %d > row_number %d", i, rank, rowno)
		}
		if pr := res.Column("f13").Float64(i); pr < 0 || pr > 1 {
			t.Fatalf("row %d: percent_rank %v", i, pr)
		}
		if cd := res.Column("f15").Float64(i); cd <= 0 || cd > 1 {
			t.Fatalf("row %d: cume_dist %v", i, cd)
		}
		if nt := res.Column("f16"); !nt.IsNull(i) && (nt.Int64(i) < 1 || nt.Int64(i) > 4) {
			t.Fatalf("row %d: ntile %d", i, nt.Int64(i))
		}
		// Percentile ordering: p25 <= median <= p75.
		p25 := res.Column("f17").Float64(i)
		med := res.Column("f19").Float64(i)
		p75 := res.Column("f18").Float64(i)
		if p25 > med+1e-9 || med > p75+1e-9 {
			t.Fatalf("row %d: percentiles out of order %v %v %v", i, p25, med, p75)
		}
		// COUNT(*) bounds everything.
		if cnt := res.Column("f2").Int64(i); cnt > size {
			t.Fatalf("row %d: count(v) %d > count(*) %d", i, cnt, size)
		}
		// Whole-partition sum is constant.
		if i > 0 && res.Column("f26").Int64(i) != res.Column("f26").Int64(0) {
			t.Fatal("whole-partition frame must give a constant")
		}
		// min(s) is a valid value.
		if ms := res.Column("f6").StringAt(i); ms < "a" || ms > "d" {
			t.Fatalf("row %d: min(s) = %q", i, ms)
		}
		if mx := res.Column("f7").Float64(i); math.IsNaN(mx) {
			t.Fatalf("row %d: max is NaN", i)
		}
	}
}

// AscNullsFirstProbe exercises the NULLS FIRST/LAST sort-key helpers in a
// real function.
func AscNullsFirstProbe(_ *Table) *Func {
	return FirstValue("v", AscNullsFirst("v"), DescNullsLast("d")).As("f28")
}

func TestDefaultOutputNames(t *testing.T) {
	table := MustNewTable(
		NewInt64Column("d", []int64{1, 2}, nil),
		NewInt64Column("v", []int64{1, 2}, nil),
	)
	res, err := Run(table, Over().OrderBy(Asc("d")),
		CountDistinct("v"),
		Rank(Asc("v")),
		Ntile(3, Asc("v")),
		NthValue("v", 2, Asc("v")),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"count_distinct_v", "rank", "ntile_3", "nth_value_v_2"} {
		if res.Column(name) == nil {
			t.Fatalf("missing default output %q", name)
		}
	}
}
